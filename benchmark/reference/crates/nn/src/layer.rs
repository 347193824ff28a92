//! The [`Layer`] trait: the unit of composition for all networks.

use md_tensor::Tensor;

/// A differentiable module with owned parameters and cached activations.
///
/// Contract:
/// * [`Layer::forward`] caches whatever the backward pass needs, so a
///   `backward` call must always follow the `forward` call whose gradient it
///   computes (the usual training-step discipline).
/// * [`Layer::backward`] *accumulates* into the layer's parameter gradients
///   (callers reset them with [`Layer::zero_grad`]) and returns `∂L/∂input`.
/// * `train` distinguishes training-mode statistics (BatchNorm, Dropout)
///   from inference mode.
///
/// Layers are `Send` so whole networks can be moved between simulated
/// cluster nodes (the discriminator swap).
pub trait Layer: Send {
    /// Computes the layer output, caching intermediates for `backward`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Propagates `∂L/∂output` to `∂L/∂input`, accumulating parameter grads.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable views of the parameter tensors (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the parameter tensors, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable views of the accumulated parameter gradients, aligned with
    /// [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Mutable views of the accumulated parameter gradients, aligned with
    /// [`Layer::grads`] — used by gradient clipping. Parameter-free layers
    /// keep the empty default.
    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    /// Resets all accumulated parameter gradients to zero.
    fn zero_grad(&mut self);

    /// Human-readable layer name for debugging and summaries.
    fn name(&self) -> String;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
