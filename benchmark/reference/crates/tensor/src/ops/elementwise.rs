//! Elementwise arithmetic with broadcasting, unary maps, and the in-place
//! update primitives used by the optimizers.

use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::workspace;

/// Applies `f(a_i, b_i)` elementwise with NumPy broadcasting.
fn broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        let mut data = workspace::take_raw(a.len());
        data.extend(a.data().iter().zip(b.data()).map(|(&x, &y)| f(x, y)));
        return Tensor::new(a.shape(), data);
    }
    let out_shape = Shape::broadcast(a.shape_obj(), b.shape_obj())
        .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", a.shape(), b.shape()));
    let nd = out_shape.ndim();
    let out_dims = out_shape.dims().to_vec();
    let a_strides = padded_broadcast_strides(a, &out_dims);
    let b_strides = padded_broadcast_strides(b, &out_dims);

    let n = out_shape.numel();
    let mut data = workspace::take_raw(n);
    let mut idx = vec![0usize; nd];
    let mut a_off = 0usize;
    let mut b_off = 0usize;
    for _ in 0..n {
        data.push(f(a.data()[a_off], b.data()[b_off]));
        // Increment the multi-index (row-major), updating offsets incrementally.
        for d in (0..nd).rev() {
            idx[d] += 1;
            a_off += a_strides[d];
            b_off += b_strides[d];
            if idx[d] < out_dims[d] {
                break;
            }
            a_off -= a_strides[d] * out_dims[d];
            b_off -= b_strides[d] * out_dims[d];
            idx[d] = 0;
        }
    }
    Tensor::new(&out_dims, data)
}

/// Effective strides of `t` when broadcast to `out_dims`: broadcast (size-1)
/// dimensions get stride 0, left-padding gets stride 0.
fn padded_broadcast_strides(t: &Tensor, out_dims: &[usize]) -> Vec<usize> {
    let nd = out_dims.len();
    let pad = nd - t.ndim();
    let t_strides = t.shape_obj().strides();
    let mut s = vec![0usize; nd];
    for i in 0..t.ndim() {
        let dim = t.shape()[i];
        assert!(
            dim == out_dims[i + pad] || dim == 1,
            "shape {:?} does not broadcast to {:?}",
            t.shape(),
            out_dims
        );
        s[i + pad] = if dim == 1 { 0 } else { t_strides[i] };
    }
    s
}

impl Tensor {
    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a / b)
    }

    /// Elementwise maximum with broadcasting.
    pub fn maximum(&self, other: &Tensor) -> Tensor {
        broadcast_zip(self, other, |a, b| a.max(b))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = workspace::take_raw(self.len());
        data.extend(self.data().iter().map(|&x| f(x)));
        Tensor::new(self.shape(), data)
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// In-place `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// In-place `self -= other` (shapes must match exactly).
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * other` — the BLAS `axpy` primitive used by
    /// SGD and gradient accumulation.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling `self *= s`.
    pub fn scale_inplace(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for v in self.data_mut() {
            *v = value;
        }
    }

    /// Elementwise natural exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data().iter().map(|&x| x * x).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot length mismatch");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// True iff all elements are finite (no NaN/inf) — used as a training
    /// health check.
    pub fn all_finite(&self) -> bool {
        self.data().iter().all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn add_same_shape() {
        let a = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::new(&[2, 2], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add(&b).data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn broadcast_row_vector() {
        let a = Tensor::new(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Tensor::new(&[3], vec![10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn broadcast_column_vector() {
        let a = Tensor::new(&[2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = Tensor::new(&[2, 1], vec![100.0, 200.0]);
        assert_eq!(
            a.add(&b).data(),
            &[100.0, 101.0, 102.0, 203.0, 204.0, 205.0]
        );
    }

    #[test]
    fn broadcast_scalar_tensor() {
        let a = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let s = Tensor::scalar(0.5);
        assert_eq!(a.mul(&s).data(), &[0.5, 1.0, 1.5, 2.0]);
    }

    #[test]
    fn broadcast_both_expand() {
        let a = Tensor::new(&[2, 1], vec![1.0, 2.0]);
        let b = Tensor::new(&[1, 3], vec![10.0, 20.0, 30.0]);
        let c = a.add(&b);
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    #[should_panic(expected = "cannot broadcast")]
    fn incompatible_broadcast_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 3]);
        a.add(&b);
    }

    #[test]
    fn sub_mul_div() {
        let a = Tensor::new(&[3], vec![4.0, 9.0, 16.0]);
        let b = Tensor::new(&[3], vec![2.0, 3.0, 4.0]);
        assert_eq!(a.sub(&b).data(), &[2.0, 6.0, 12.0]);
        assert_eq!(a.mul(&b).data(), &[8.0, 27.0, 64.0]);
        assert_eq!(a.div(&b).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut a = Tensor::new(&[3], vec![1.0, 2.0, 3.0]);
        let g = Tensor::new(&[3], vec![10.0, 10.0, 10.0]);
        a.axpy(-0.1, &g);
        assert_close(a.data(), &[0.0, 1.0, 2.0], 1e-6);
    }

    #[test]
    fn unary_maps() {
        let a = Tensor::new(&[2], vec![1.0, 4.0]);
        assert_eq!(a.sqrt().data(), &[1.0, 2.0]);
        assert_eq!(a.square().data(), &[1.0, 16.0]);
        assert_eq!(a.neg().data(), &[-1.0, -4.0]);
        assert_close(a.exp().data(), &[1.0f32.exp(), 4.0f32.exp()], 1e-6);
    }

    #[test]
    fn norms_and_dot() {
        let a = Tensor::new(&[2], vec![3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.sq_norm(), 25.0);
        let b = Tensor::new(&[2], vec![1.0, 2.0]);
        assert_eq!(a.dot(&b), 11.0);
    }

    #[test]
    fn clamp_and_maximum() {
        let a = Tensor::new(&[4], vec![-2.0, 0.5, 2.0, 10.0]);
        assert_eq!(a.clamp(0.0, 1.0).data(), &[0.0, 0.5, 1.0, 1.0]);
        let b = Tensor::full(&[4], 1.0);
        assert_eq!(a.maximum(&b).data(), &[1.0, 1.0, 2.0, 10.0]);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut a = Tensor::ones(&[3]);
        assert!(a.all_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(!a.all_finite());
    }

    #[test]
    fn broadcast_3d_bias_pattern() {
        // The (B, C, H, W) + (1, C, 1, 1) bias pattern used by conv layers.
        let x = Tensor::zeros(&[2, 3, 2, 2]);
        let bias = Tensor::new(&[1, 3, 1, 1], vec![1.0, 2.0, 3.0]);
        let y = x.add(&bias);
        assert_eq!(y.shape(), &[2, 3, 2, 2]);
        assert_eq!(y.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(y.at(&[1, 1, 0, 0]), 2.0);
        assert_eq!(y.at(&[1, 2, 1, 0]), 3.0);
    }
}
