//! The [`Layer`] trait: the unit of composition for all networks.

pub use md_tensor::ops::Need;
use md_tensor::Tensor;

/// A differentiable module with owned parameters and cached activations.
///
/// Contract:
/// * [`Layer::forward`] caches whatever the backward pass needs, so a
///   gradient call must always follow the `forward` call whose gradient it
///   computes (the usual training-step discipline).
/// * [`Layer::backprop`] is the layer's one gradient implementation. The
///   caller says what it will read with a [`Need`]:
///   - [`Need::All`] *accumulates* into the layer's parameter gradients
///     (callers reset them with [`Layer::zero_grad`]) and returns
///     `∂L/∂input`;
///   - [`Need::Input`] returns `∂L/∂input` and neither reads nor writes the
///     parameter gradients;
///   - [`Need::Params`] accumulates the parameter gradients and returns
///     `None` — no input gradient is computed.
///
///   Whatever a need computes is bit-for-bit what `Need::All` computes for
///   it. [`Layer::backward`], [`Layer::backward_input`] and
///   [`Layer::backward_params`] are the three needs spelled as calls.
/// * [`Layer::backprop_first`] is the first gradient call of a training
///   step: bit for bit `zero_grad()` then `backprop`, but the parameter
///   gradients are written, not swept and added to.
/// * A forward's cache belongs to the gradient calls that follow it until
///   [`Layer::release_cache`] hands it back to the workspace; a container
///   releases each child as soon as its own gradient call has walked it, so
///   one gradient call through a [`Sequential`](crate::Sequential) consumes
///   the forward's cache and a second one panics with "before forward". A
///   bare layer keeps its cache across gradient calls.
/// * `train` distinguishes training-mode statistics (BatchNorm, Dropout)
///   from inference mode.
/// * [`Layer::forward_stacked`] is the layer's one forward implementation.
///   Its `groups` says that the rows of `x` are that many independent
///   batches of equal size stacked along axis 0 (batch 0's rows first).
///   The output, and everything a following gradient call returns or
///   accumulates, is bit-for-bit what `groups` separate `forward` calls
///   would produce, each followed by its own accumulating gradient call,
///   in batch order. Most layers treat every row alone and ignore the
///   argument; a layer that couples the rows of a batch (`BatchNorm`,
///   `MinibatchDiscrimination`) must keep the groups apart, which is why
///   the method has no default. [`Layer::forward`] is `groups = 1`.
///
/// Layers are `Send` so whole networks can be moved between simulated
/// cluster nodes (the discriminator swap).
pub trait Layer: Send {
    /// Computes the layer output for `groups` equal batches stacked along
    /// axis 0, caching intermediates for the gradient.
    ///
    /// # Panics
    /// Row-coupled layers panic when the rows do not split into `groups`
    /// equal batches.
    fn forward_stacked(&mut self, x: &Tensor, groups: usize, train: bool) -> Tensor;

    /// Computes the layer output for one batch ([`Layer::forward_stacked`]
    /// with `groups = 1`).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_stacked(x, 1, train)
    }

    /// Propagates `∂L/∂output`, computing only what `need` names: the
    /// return value is `Some(∂L/∂input)` iff `need.input()`, and parameter
    /// gradients are accumulated iff `need.params()`.
    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor>;

    /// [`Layer::backprop`] as the first gradient call of a step: what
    /// `need.params()` accumulates is **written** over whatever the
    /// gradients held — bit for bit `zero_grad()` followed by `backprop`,
    /// without the sweep and without reading the old gradient.
    /// [`Need::Input`] leaves the gradients alone, as it does in `backprop`.
    /// Parameter-free layers keep this default.
    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        if need.params() {
            self.zero_grad();
        }
        self.backprop(grad_out, need)
    }

    /// Hands the activations the last forward cached back to the workspace;
    /// a gradient call after this panics like one before any forward.
    /// Layers that cache no tensor keep the empty default.
    fn release_cache(&mut self) {}

    /// Propagates `∂L/∂output` to `∂L/∂input`, accumulating parameter grads
    /// ([`Need::All`]).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, Need::All)
            .expect("Need::All produces an input gradient")
    }

    /// `∂L/∂input` alone; parameter gradients stay untouched
    /// ([`Need::Input`]) — the MD-GAN error feedback `F_n`.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, Need::Input)
            .expect("Need::Input produces an input gradient")
    }

    /// Accumulates parameter gradients alone ([`Need::Params`]) — a training
    /// step on a batch whose own gradient nobody reads.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop(grad_out, Need::Params);
    }

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

    /// Each parameter (mutable) next to its accumulated gradient, in
    /// [`Layer::params`] order — what an optimizer step walks, with no copy
    /// of either. Parameter-free layers keep the empty default.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
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
