//! The dense, contiguous, row-major f32 tensor.

use crate::rng::Rng64;
use crate::shape::Shape;
use crate::workspace;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// A dense n-dimensional array of `f32` stored contiguously in row-major
/// order.
///
/// All operations allocate fresh output tensors unless suffixed `_inplace`
/// or `_assign`. This keeps aliasing trivial and makes the library easy to
/// reason about in the multi-threaded training code.
///
/// Backing buffers are drawn from and returned to the process-wide
/// recycling pool in [`crate::workspace`]: dropping a tensor shelves its
/// `Vec<f32>` for reuse and cloning draws from the shelf, so steady-state
/// training loops allocate nothing. This is invisible at the API level —
/// only the `workspace::stats()` counters can tell.
#[derive(PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        Tensor {
            shape: self.shape.clone(),
            data: workspace::take_copy(&self.data),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        workspace::recycle(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len() != shape.numel()`.
    pub fn new(shape: &[usize], data: Vec<f32>) -> Self {
        let shape = Shape::new(shape);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { shape, data }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::new(shape);
        let n = shape.numel();
        Tensor {
            shape,
            data: workspace::take_filled(n, value),
        }
    }

    /// A rank-0 (scalar) tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::new(&[]),
            data: vec![value],
        }
    }

    /// Standard-normal samples (Box–Muller), seeded via the supplied RNG.
    pub fn randn(shape: &[usize], rng: &mut Rng64) -> Self {
        let shape = Shape::new(shape);
        let n = shape.numel();
        let mut data = workspace::take_uninit(n);
        rng.fill_normal(&mut data);
        Tensor { shape, data }
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut Rng64) -> Self {
        let shape = Shape::new(shape);
        let n = shape.numel();
        let mut data = workspace::take_raw(n);
        for _ in 0..n {
            data.push(lo + (hi - lo) * rng.uniform());
        }
        Tensor { shape, data }
    }

    /// `[0, 1, 2, ..., n-1]` as a 1-D tensor.
    pub fn arange(n: usize) -> Self {
        let mut data = workspace::take_raw(n);
        data.extend((0..n).map(|i| i as f32));
        Tensor::new(&[n], data)
    }

    // ------------------------------------------------------------ accessors

    /// Dimension sizes.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The [`Shape`] object.
    #[inline]
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Rank (number of dimensions).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing data (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing vector.
    pub fn into_data(mut self) -> Vec<f32> {
        // `Drop` then sees an empty Vec and shelves nothing.
        std::mem::take(&mut self.data)
    }

    /// Element at a multi-dimensional index.
    #[inline]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    #[inline]
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    // -------------------------------------------------------------- reshape

    /// Returns a tensor with the same data and a new shape.
    ///
    /// One dimension may be `usize::MAX` ("infer"), mirroring NumPy's `-1`.
    ///
    /// # Panics
    /// Panics if the element counts do not match.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        self.clone().into_reshape(dims)
    }

    /// In-place (move) variant of [`Tensor::reshape`].
    pub fn into_reshape(mut self, dims: &[usize]) -> Tensor {
        let mut dims = dims.to_vec();
        let infer = dims.iter().position(|&d| d == usize::MAX);
        if let Some(i) = infer {
            let known: usize = dims.iter().filter(|&&d| d != usize::MAX).product();
            assert!(
                known > 0 && self.data.len().is_multiple_of(known),
                "cannot infer dimension"
            );
            dims[i] = self.data.len() / known;
        }
        let shape = Shape::new(&dims);
        assert_eq!(
            shape.numel(),
            self.data.len(),
            "reshape to {shape} changes element count"
        );
        self.shape = shape;
        self
    }

    /// Flattens to 1-D.
    pub fn flatten(&self) -> Tensor {
        self.reshape(&[self.len()])
    }

    // ----------------------------------------------------------- row slices

    /// Views row `i` of a 2-D tensor as a slice.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.ndim(), 2, "row() requires a 2-D tensor");
        let cols = self.shape()[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Copies the `i`-th slice along axis 0 (e.g. one sample of a batch).
    pub fn index_axis0(&self, i: usize) -> Tensor {
        assert!(self.ndim() >= 1, "index_axis0 requires rank >= 1");
        let n0 = self.shape()[0];
        assert!(i < n0, "index {i} out of bounds for axis 0 of size {n0}");
        let stride: usize = self.shape()[1..].iter().product();
        let data = workspace::take_copy(&self.data[i * stride..(i + 1) * stride]);
        Tensor::new(&self.shape()[1..], data)
    }

    /// Stacks tensors of identical shape along a new leading axis.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack of zero tensors");
        let inner = items[0].shape().to_vec();
        let mut data = workspace::take_raw(items.len() * items[0].len());
        for t in items {
            assert_eq!(t.shape(), &inner[..], "stack shape mismatch");
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(&inner);
        Tensor::new(&dims, data)
    }

    /// Concatenates tensors (owned or borrowed) along axis 0; trailing dims
    /// must match.
    pub fn concat0<T: Borrow<Tensor>>(items: &[T]) -> Tensor {
        assert!(!items.is_empty(), "concat of zero tensors");
        let inner = items[0].borrow().shape()[1..].to_vec();
        let mut total0 = 0usize;
        let mut data = workspace::take_raw(items.iter().map(|t| t.borrow().len()).sum());
        for t in items {
            let t = t.borrow();
            assert_eq!(
                &t.shape()[1..],
                &inner[..],
                "concat trailing shape mismatch"
            );
            total0 += t.shape()[0];
            data.extend_from_slice(t.data());
        }
        let mut dims = vec![total0];
        dims.extend_from_slice(&inner);
        Tensor::new(&dims, data)
    }

    /// Splits the tensor into `parts` equal tensors along axis 0 — the
    /// inverse of [`Tensor::concat0`] over equal shapes.
    ///
    /// # Panics
    /// Panics if axis 0 does not divide into `parts`.
    pub fn into_split0(self, parts: usize) -> Vec<Tensor> {
        assert!(self.ndim() >= 1, "into_split0 requires rank >= 1");
        let n0 = self.shape()[0];
        assert!(
            parts >= 1 && n0.is_multiple_of(parts),
            "axis 0 of size {n0} does not split into {parts} equal parts"
        );
        if parts == 1 {
            return vec![self];
        }
        let mut dims = self.shape().to_vec();
        dims[0] = n0 / parts;
        let len = self.len() / parts;
        (0..parts)
            .map(|i| {
                Tensor::new(
                    &dims,
                    workspace::take_copy(&self.data[i * len..(i + 1) * len]),
                )
            })
            .collect()
    }

    /// Gathers rows (axis-0 slices) at the given indices into a new tensor.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.ndim() >= 1);
        let stride: usize = self.shape()[1..].iter().product();
        let mut data = workspace::take_raw(indices.len() * stride);
        for &i in indices {
            assert!(i < self.shape()[0], "gather index {i} out of bounds");
            data.extend_from_slice(&self.data[i * stride..(i + 1) * stride]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.shape()[1..]);
        Tensor::new(&dims, data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.len() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elements]", &self.data[..8], self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_length() {
        let t = Tensor::new(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_bad_length() {
        Tensor::new(&[2, 2], vec![1.0]);
    }

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).data().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[3], 2.5).data().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "item()")]
    fn item_rejects_multi_element() {
        Tensor::zeros(&[2]).item();
    }

    #[test]
    fn randn_is_seeded_and_deterministic() {
        let mut r1 = Rng64::seed_from_u64(7);
        let mut r2 = Rng64::seed_from_u64(7);
        let a = Tensor::randn(&[32], &mut r1);
        let b = Tensor::randn(&[32], &mut r2);
        assert_eq!(a.data(), b.data());
        // crude sanity: mean near 0, not all equal
        let mean: f32 = a.data().iter().sum::<f32>() / 32.0;
        assert!(mean.abs() < 1.0);
        assert!(a.data().iter().any(|&x| x != a.data()[0]));
    }

    #[test]
    fn rand_uniform_range() {
        let mut rng = Rng64::seed_from_u64(3);
        let t = Tensor::rand_uniform(&[256], -2.0, 5.0, &mut rng);
        assert!(t.data().iter().all(|&x| (-2.0..5.0).contains(&x)));
    }

    #[test]
    fn reshape_roundtrip_and_infer() {
        let t = Tensor::arange(12);
        let m = t.reshape(&[3, 4]);
        assert_eq!(m.at(&[1, 2]), 6.0);
        let inferred = m.reshape(&[2, usize::MAX]);
        assert_eq!(inferred.shape(), &[2, 6]);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        Tensor::arange(5).reshape(&[2, 3]);
    }

    #[test]
    fn index_axis0_extracts_sample() {
        let t = Tensor::arange(12).into_reshape(&[3, 2, 2]);
        let s = t.index_axis0(1);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn stack_and_concat() {
        let a = Tensor::arange(4).into_reshape(&[2, 2]);
        let b = Tensor::full(&[2, 2], 9.0);
        let s = Tensor::stack(&[a.clone(), b.clone()]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        let c = Tensor::concat0(&[a.clone(), b.clone()]);
        assert_eq!(c.shape(), &[4, 2]);
        assert_eq!(c.row(3), &[9.0, 9.0]);
        // Splitting undoes it; one part is the tensor itself.
        assert_eq!(c.clone().into_split0(2), vec![a, b]);
        assert_eq!(c.clone().into_split0(1), vec![c]);
    }

    #[test]
    #[should_panic(expected = "does not split into 2 equal parts")]
    fn split0_rejects_uneven_parts() {
        Tensor::zeros(&[3, 2]).into_split0(2);
    }

    #[test]
    fn gather_rows_selects() {
        let t = Tensor::arange(6).into_reshape(&[3, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn row_views_2d() {
        let t = Tensor::arange(6).into_reshape(&[2, 3]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
    }
}
