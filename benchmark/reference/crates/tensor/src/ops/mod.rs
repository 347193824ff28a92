//! Tensor operations, grouped by kind.
//!
//! * [`elementwise`] — broadcasting binary ops, unary maps, in-place updates.
//! * [`gemm`] — the packed, cache-blocked GEMM micro-kernel shared by
//!   matmul and conv.
//! * [`matmul`] — 2-D matrix multiply and transpose.
//! * [`reduce`] — sums, means, maxima, argmax, per-axis reductions, softmax.
//! * [`conv`] — im2col/col2im, conv2d and conv-transpose2d with gradients.

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod matmul;
pub mod reduce;
