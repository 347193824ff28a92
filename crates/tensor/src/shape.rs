//! Shapes, strides and broadcasting rules.
//!
//! Tensors are row-major ("C order"): the last dimension is contiguous.
//! Broadcasting follows the NumPy convention: shapes are right-aligned, and
//! each dimension pair must be equal or one of them must be `1`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The dimensions of a tensor, e.g. `[batch, channels, height, width]`.
///
/// A scalar is represented by the empty shape `[]` (one element).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions (rank).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Dimension sizes as a slice.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (product of dimensions; 1 for a scalar).
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides, in elements.
    ///
    /// `strides[i]` is the linear-index step when dimension `i` advances by 1.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0usize; self.0.len()];
        let mut acc = 1usize;
        for i in (0..self.0.len()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// Converts a multi-dimensional index into a linear offset.
    ///
    /// # Panics
    /// Panics if `idx` has the wrong rank or an index is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.0.len(), "index rank mismatch");
        let mut off = 0usize;
        let mut acc = 1usize;
        for i in (0..self.0.len()).rev() {
            assert!(
                idx[i] < self.0[i],
                "index {} out of bounds for dim {i} of size {}",
                idx[i],
                self.0[i]
            );
            off += idx[i] * acc;
            acc *= self.0[i];
        }
        off
    }

    /// Computes the broadcast result shape of `a` and `b`, or `None` if the
    /// shapes are incompatible.
    ///
    /// Follows the NumPy rule: right-align, pad the shorter shape with 1s,
    /// then each pair must match or contain a 1.
    pub fn broadcast(a: &Shape, b: &Shape) -> Option<Shape> {
        let n = a.ndim().max(b.ndim());
        let mut out = vec![0usize; n];
        for (i, slot) in out.iter_mut().enumerate() {
            let da = if i < n - a.ndim() {
                1
            } else {
                a.0[i - (n - a.ndim())]
            };
            let db = if i < n - b.ndim() {
                1
            } else {
                b.0[i - (n - b.ndim())]
            };
            if da == db || da == 1 || db == 1 {
                *slot = da.max(db);
            } else {
                return None;
            }
        }
        Some(Shape(out))
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::new(&[]).numel(), 1);
    }

    #[test]
    fn numel_products() {
        assert_eq!(Shape::new(&[2, 3, 4]).numel(), 24);
        assert_eq!(Shape::new(&[7]).numel(), 7);
        assert_eq!(Shape::new(&[5, 0, 2]).numel(), 0);
    }

    #[test]
    fn row_major_strides() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[6]).strides(), vec![1]);
        assert!(Shape::new(&[]).strides().is_empty());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[1, 0, 2]), 14);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_rejects_out_of_bounds() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn broadcast_equal_shapes() {
        let a = Shape::new(&[2, 3]);
        assert_eq!(Shape::broadcast(&a, &a), Some(a.clone()));
    }

    #[test]
    fn broadcast_scalar_with_anything() {
        let a = Shape::new(&[]);
        let b = Shape::new(&[4, 5]);
        assert_eq!(Shape::broadcast(&a, &b), Some(b.clone()));
        assert_eq!(Shape::broadcast(&b, &a), Some(b));
    }

    #[test]
    fn broadcast_pads_left() {
        let a = Shape::new(&[3]);
        let b = Shape::new(&[2, 3]);
        assert_eq!(Shape::broadcast(&a, &b), Some(Shape::new(&[2, 3])));
    }

    #[test]
    fn broadcast_ones_expand() {
        let a = Shape::new(&[2, 1, 4]);
        let b = Shape::new(&[1, 3, 1]);
        assert_eq!(Shape::broadcast(&a, &b), Some(Shape::new(&[2, 3, 4])));
    }

    #[test]
    fn broadcast_incompatible() {
        let a = Shape::new(&[2, 3]);
        let b = Shape::new(&[4, 3]);
        assert_eq!(Shape::broadcast(&a, &b), None);
    }
}
