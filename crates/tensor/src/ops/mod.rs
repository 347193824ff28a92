//! Tensor operations, grouped by kind.
//!
//! * [`elementwise`] — broadcasting binary ops, unary maps, in-place updates.
//! * [`gemm`] — the packed, cache-blocked GEMM micro-kernel shared by
//!   matmul and conv, and the no-pack kernels for skinny dense shapes.
//! * [`matmul`] — 2-D matrix multiply and transpose.
//! * [`reduce`] — sums, means, maxima, argmax, per-axis reductions, softmax.
//! * [`conv`] — im2col/col2im, conv2d and conv-transpose2d with gradients.

pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod matmul;
pub mod reduce;

/// What the caller of a backward pass will read.
///
/// A gradient routine computes two independent things from `∂L/∂output`:
/// the gradient of its input and the gradients of its parameters. Backward
/// passes take a `Need` so that whichever half nobody reads is not computed
/// at all; the half that is computed is bit-for-bit what [`Need::All`]
/// produces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Need {
    /// Input gradient and parameter gradients.
    All,
    /// Input gradient only; parameter gradients are left untouched.
    Input,
    /// Parameter gradients only; no input gradient is produced.
    Params,
}

impl Need {
    /// True when the input gradient must be produced.
    pub fn input(self) -> bool {
        self != Need::Params
    }

    /// True when the parameter gradients must be accumulated.
    pub fn params(self) -> bool {
        self != Need::Input
    }
}
