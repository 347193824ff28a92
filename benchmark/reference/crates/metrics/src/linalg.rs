//! Small dense linear algebra in f64: symmetric Jacobi eigendecomposition,
//! PSD matrix square root, covariance estimation — everything FID needs.
//!
//! Matrices are square, row-major `Vec<f64>`. Dimensions stay small (the
//! scorer feature width, ≤ 128), so the O(n³)-per-sweep cyclic Jacobi
//! method is plenty fast and extremely robust.

/// Multiplies two square row-major matrices.
pub fn matmul(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for p in 0..n {
            let av = a[i * n + p];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[p * n + j];
            }
        }
    }
    out
}

/// Transpose of a square row-major matrix.
pub fn transpose(a: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            out[j * n + i] = a[i * n + j];
        }
    }
    out
}

/// Trace of a square matrix.
pub fn trace(a: &[f64], n: usize) -> f64 {
    (0..n).map(|i| a[i * n + i]).sum()
}

/// Sum of squared off-diagonal entries (Jacobi convergence measure).
fn offdiag_norm2(a: &[f64], n: usize) -> f64 {
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                s += a[i * n + j] * a[i * n + j];
            }
        }
    }
    s
}

/// Eigendecomposition of a symmetric matrix by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` where `eigenvectors` is row-major
/// with **columns** as eigenvectors: `A = V diag(λ) Vᵀ`.
///
/// # Panics
/// Panics if the matrix is not square or markedly asymmetric.
pub fn eigh(a: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(a.len(), n * n, "eigh: matrix must be n x n");
    for i in 0..n {
        for j in (i + 1)..n {
            let d = (a[i * n + j] - a[j * n + i]).abs();
            let scale = a[i * n + j].abs().max(a[j * n + i].abs()).max(1.0);
            assert!(d <= 1e-6 * scale, "eigh: matrix not symmetric at ({i},{j})");
        }
    }
    let mut m = a.to_vec();
    // V starts as identity.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let tol = 1e-24 * trace(&matmul(&m, &m, n), n).max(1e-300);
    for _sweep in 0..120 {
        if offdiag_norm2(&m, n) <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of m: m = Jᵀ m J.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                // Accumulate V = V J.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eig: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    (eig, v)
}

/// Square root of a symmetric positive-semidefinite matrix via
/// eigendecomposition; small negative eigenvalues (numerical noise) are
/// clamped to zero.
pub fn sqrtm_psd(a: &[f64], n: usize) -> Vec<f64> {
    let (eig, v) = eigh(a, n);
    // S = V diag(sqrt(max(λ,0))) Vᵀ
    let mut vs = vec![0.0; n * n]; // V * diag(sqrt)
    for i in 0..n {
        for j in 0..n {
            vs[i * n + j] = v[i * n + j] * eig[j].max(0.0).sqrt();
        }
    }
    matmul(&vs, &transpose(&v, n), n)
}

/// Mean vector and covariance matrix (row-major, `d x d`) of `rows` feature
/// vectors, each of width `d`, given as a flat slice of f32 features.
///
/// Uses the unbiased (`n-1`) estimator, matching the TF FID implementation
/// the paper uses.
pub fn mean_and_cov(features: &[f32], rows: usize, d: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(features.len(), rows * d, "feature matrix size mismatch");
    assert!(rows >= 2, "need at least 2 samples for covariance");
    let mut mean = vec![0.0f64; d];
    for r in 0..rows {
        for (m, &x) in mean.iter_mut().zip(&features[r * d..(r + 1) * d]) {
            *m += x as f64;
        }
    }
    for m in &mut mean {
        *m /= rows as f64;
    }
    let mut cov = vec![0.0f64; d * d];
    let mut centered = vec![0.0f64; d];
    for r in 0..rows {
        for (c, (&x, m)) in centered
            .iter_mut()
            .zip(features[r * d..(r + 1) * d].iter().zip(&mean))
        {
            *c = x as f64 - *m;
        }
        for i in 0..d {
            let ci = centered[i];
            if ci == 0.0 {
                continue;
            }
            for j in 0..d {
                cov[i * d + j] += ci * centered[j];
            }
        }
    }
    let denom = (rows - 1) as f64;
    for c in &mut cov {
        *c /= denom;
    }
    (mean, cov)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_mat_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "at {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let eye = vec![1.0, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 2), a);
        assert_eq!(matmul(&eye, &a, 2), a);
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = vec![3.0, 0.0, 0.0, 7.0];
        let (mut eig, _) = eigh(&a, 2);
        eig.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((eig[0] - 3.0).abs() < 1e-10);
        assert!((eig[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn eigh_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = vec![2.0, 1.0, 1.0, 2.0];
        let (mut eig, _) = eigh(&a, 2);
        eig.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert!((eig[0] - 1.0).abs() < 1e-10);
        assert!((eig[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigh_reconstructs_matrix() {
        // Random symmetric 6x6: A = V diag(λ) Vᵀ must reproduce A.
        let n = 6;
        let mut rng = md_tensor::rng::Rng64::seed_from_u64(1);
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = rng.normal() as f64;
                a[i * n + j] = v;
                a[j * n + i] = v;
            }
        }
        let (eig, v) = eigh(&a, n);
        let mut vd = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                vd[i * n + j] = v[i * n + j] * eig[j];
            }
        }
        let rebuilt = matmul(&vd, &transpose(&v, n), n);
        assert_mat_close(&rebuilt, &a, 1e-8);
        // V orthogonal: VᵀV = I.
        let vtv = matmul(&transpose(&v, n), &v, n);
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((vtv[i * n + j] - want).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sqrtm_squares_back() {
        // PSD matrix: A = BᵀB.
        let n = 5;
        let mut rng = md_tensor::rng::Rng64::seed_from_u64(2);
        let b: Vec<f64> = (0..n * n).map(|_| rng.normal() as f64).collect();
        let a = matmul(&transpose(&b, n), &b, n);
        let s = sqrtm_psd(&a, n);
        let s2 = matmul(&s, &s, n);
        assert_mat_close(&s2, &a, 1e-7);
    }

    #[test]
    fn sqrtm_of_identity_is_identity() {
        let n = 4;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        assert_mat_close(&sqrtm_psd(&eye, n), &eye, 1e-12);
    }

    #[test]
    fn covariance_of_known_data() {
        // Two features, perfectly correlated: cov = [[v, v], [v, v]].
        let feats: Vec<f32> = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        let (mean, cov) = mean_and_cov(&feats, 4, 2);
        assert!((mean[0] - 2.5).abs() < 1e-9);
        assert!((mean[1] - 2.5).abs() < 1e-9);
        // var (unbiased) of {1,2,3,4} = 5/3.
        for c in &cov {
            assert!((c - 5.0 / 3.0).abs() < 1e-6, "cov entry {c}");
        }
    }

    #[test]
    fn covariance_is_symmetric_psd() {
        let mut rng = md_tensor::rng::Rng64::seed_from_u64(3);
        let d = 4;
        let rows = 50;
        let feats: Vec<f32> = (0..rows * d).map(|_| rng.normal()).collect();
        let (_, cov) = mean_and_cov(&feats, rows, d);
        for i in 0..d {
            for j in 0..d {
                assert!((cov[i * d + j] - cov[j * d + i]).abs() < 1e-9);
            }
        }
        let (eig, _) = eigh(&cov, d);
        assert!(eig.iter().all(|&l| l > -1e-9), "cov eigenvalues {eig:?}");
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn eigh_rejects_asymmetric() {
        eigh(&[1.0, 2.0, 3.0, 4.0], 2);
    }
}
