//! # md-metrics
//!
//! GAN quality metrics, reproducing the paper's evaluation protocol
//! (§V-A.c) without TensorFlow:
//!
//! * a **scorer classifier** ([`classifier::Scorer`]) trained on the real
//!   training set — the stand-in for the paper's "classifier adapted to the
//!   MNIST data" (itself a stand-in for the Inception network),
//! * the **MNIST Score / Inception Score** ([`scores::inception_score`]) of
//!   Salimans et al. \[20\]: `exp(E_x KL(p(y|x) ‖ p(y)))` over classifier
//!   posteriors on generated data,
//! * the **Fréchet Inception Distance** ([`scores::fid`]) of Heusel et al.
//!   \[35\]: the Fréchet distance between Gaussians fitted to classifier
//!   features of real and generated samples — powered by a from-scratch
//!   symmetric Jacobi eigensolver and PSD matrix square root ([`linalg`]).

pub mod classifier;
pub mod linalg;
pub mod scores;

pub use classifier::Scorer;
pub use scores::{fid, inception_score, GanScores};
