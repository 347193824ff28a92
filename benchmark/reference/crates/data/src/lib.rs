//! # md-data
//!
//! Synthetic, class-conditional image datasets standing in for the paper's
//! MNIST, CIFAR10 and CelebA (see DESIGN.md §3 for the substitution
//! rationale), plus the distributed-dataset plumbing of the paper's setup:
//!
//! * [`Dataset`](dataset::Dataset) — images `(N, C, H, W)` in `[-1, 1]`
//!   with integer labels,
//! * i.i.d. equal sharding over `N` workers (`B = ∪ B_n`, paper §III.a),
//! * seeded random batch sampling (`X_r ← SAMPLES(B_n, b)`, Algorithm 1).
//!
//! The three generators produce multi-modal, learnable distributions with
//! the same shapes and channel counts as the originals (scaled-down sizes
//! are configurable):
//!
//! * [`synthetic::mnist_like`] — seven-segment "digits" with jitter/noise,
//!   10 classes, grayscale.
//! * [`synthetic::cifar_like`] — oriented color textures, 10 classes, RGB.
//! * [`synthetic::celeba_like`] — procedural face-like compositions, RGB,
//!   4 attribute classes (the GAN trains unconditionally on them, like the
//!   paper's CelebA run).

pub mod dataset;
pub mod image_io;
pub mod synthetic;

pub use dataset::{BatchSampler, Dataset};
pub use synthetic::{celeba_like, cifar_like, mnist_like, DataSpec, Family};
