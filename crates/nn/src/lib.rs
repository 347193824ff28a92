//! # md-nn
//!
//! A layer-based neural-network stack with analytic reverse-mode gradients,
//! built on [`md_tensor`]. It provides everything the MD-GAN reproduction
//! needs to train ACGAN generators and discriminators:
//!
//! * the object-safe [`Layer`](layer::Layer) trait (forward / backward /
//!   parameter access),
//! * layers: [`Dense`](layers::Dense), [`Conv2d`](layers::Conv2d),
//!   [`ConvTranspose2d`](layers::ConvTranspose2d),
//!   [`BatchNorm`](layers::BatchNorm), activations, [`Dropout`](layers::Dropout),
//!   [`Reshape`](layers::Reshape) and the minibatch-discrimination layer of
//!   Salimans et al. (the paper's discriminators use it),
//! * [`Sequential`](layers::Sequential) containers with flat parameter
//!   (de)serialization — the primitive behind MD-GAN's discriminator swap
//!   and FL-GAN's federated averaging,
//! * losses: BCE-with-logits, softmax cross-entropy, and the exact GAN
//!   objectives of the paper (`J_disc`, `J_gen`) in [`gan`],
//! * optimizers: [`Sgd`](optim::Sgd) and [`Adam`](optim::Adam) (the paper
//!   trains everything with Adam).
//!
//! Every layer has one gradient routine, [`Layer::backprop`](layer::Layer),
//! which can accumulate parameter gradients *and* return the gradient with
//! respect to its input — and is told by a [`Need`] which of the two its
//! caller will read, so the other is never computed. The input gradient
//! alone is what MD-GAN workers send to the server as the error feedback
//! `F_n = ∂B̃/∂x`.

pub mod gan;
pub mod health;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;

pub use health::{HealthConfig, HealthMonitor, HealthVerdict};
pub use layer::{GradSlot, Layer, Need};
pub use layers::Sequential;

#[cfg(test)]
pub(crate) mod gradcheck;
