//! Concrete layers. All implement [`crate::Layer`].

mod activations;
mod batchnorm;
mod conv;
mod dense;
mod dropout;
mod minibatch;
mod reshape;
mod sequential;

pub use activations::{sigmoid, LeakyRelu, Relu, Sigmoid, Tanh};
pub use batchnorm::BatchNorm;
pub use conv::{Conv2d, ConvTranspose2d};
pub use dense::Dense;
pub use dropout::Dropout;
pub use minibatch::MinibatchDiscrimination;
pub use reshape::{Flatten, Reshape};
pub use sequential::Sequential;
