//! # md-tensor
//!
//! A small, dependency-light dense tensor library for f32 data, built for the
//! MD-GAN reproduction. It provides exactly the kernels a GAN training stack
//! needs:
//!
//! * an n-dimensional row-major [`Tensor`] over `Vec<f32>`,
//! * elementwise arithmetic with NumPy-style broadcasting,
//! * blocked 2-D matrix multiplication (optionally threaded),
//! * `im2col`/`col2im` based 2-D convolution and transposed convolution,
//!   with analytic gradients for inputs, weights and biases,
//! * reductions (sum/mean/max/argmax, per-axis variants),
//! * seeded RNG helpers (uniform, Box–Muller normal) so every experiment in
//!   the repository is reproducible bit-for-bit.
//!
//! The design intentionally favours clarity and testability over raw speed:
//! all tensors are contiguous, ops allocate their outputs, and hot kernels
//! (matmul, im2col) are written as cache-friendly loops that LLVM vectorizes
//! well at `opt-level >= 2`. Large kernels are split over a persistent
//! worker pool ([`pool`]) — long-lived threads created lazily once, so
//! steady-state kernel calls never spawn OS threads — with results that are
//! bitwise identical for any thread count (see [`parallel`] and the
//! `TENSOR_THREADS` override).

pub mod ops;
pub mod parallel;
pub mod pool;
pub mod rng;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;

/// Numeric tolerance used across the workspace for float comparisons in tests.
pub const TEST_EPS: f32 = 1e-4;

/// Asserts that two f32 slices are elementwise close; panics with context.
///
/// Used pervasively by unit tests in this crate and downstream crates.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let diff = (x - y).abs();
        let scale = 1.0_f32.max(x.abs()).max(y.abs());
        assert!(
            diff <= tol * scale,
            "element {i} differs: {x} vs {y} (|diff|={diff}, tol={tol})"
        );
    }
}
