//! The [`Layer`] trait: the unit of composition for all networks.

pub use md_tensor::ops::Need;
use md_tensor::{workspace, Tensor};

/// Where a layer keeps one parameter's gradient. The gradient exists only
/// from the backward that writes it to the optimizer step that reads it;
/// the rest of the time the slot is empty and reads as zeros.
///
/// Layers are built with every slot empty. A gradient call draws its buffer
/// from the process-wide workspace with [`GradSlot::draw`], and
/// [`Layer::release_grads`] — which the optimizers call after their update
/// and [`Layer::zero_grad`] spells — hands it back. So a network between
/// steps holds its parameters and nothing else, and one gradient set per
/// concurrently stepping thread circulates on the shelf, whichever network
/// it belongs to at the moment.
#[derive(Default)]
pub struct GradSlot(Option<Tensor>);

impl GradSlot {
    /// The buffer a gradient call writes into, of the parameter's `shape`:
    /// the one the slot holds, else one drawn from the workspace — zeroed
    /// when the call accumulates (`acc`, the empty slot's zeros), with
    /// arbitrary contents when it overwrites every element.
    pub fn draw(&mut self, shape: &[usize], acc: bool) -> &mut Tensor {
        let g = self.0.get_or_insert_with(|| {
            let n = shape.iter().product();
            let data = if acc {
                workspace::take_zeroed(n)
            } else {
                workspace::take_uninit(n)
            };
            Tensor::new(shape, data)
        });
        debug_assert_eq!(g.shape(), shape, "gradient slot shape drift");
        g
    }

    /// The gradient, or `None` when the slot is empty (all zeros).
    pub fn get(&self) -> Option<&Tensor> {
        self.0.as_ref()
    }

    /// Mutable access to a held gradient; an empty slot stays empty.
    pub fn get_mut(&mut self) -> Option<&mut Tensor> {
        self.0.as_mut()
    }

    /// Hands the buffer back to the workspace; the slot reads as zeros.
    pub fn release(&mut self) {
        self.0 = None;
    }
}

/// A differentiable module with owned parameters and cached activations.
///
/// Contract:
/// * [`Layer::forward`] caches whatever the backward pass needs, so a
///   gradient call must always follow the `forward` call whose gradient it
///   computes (the usual training-step discipline).
/// * [`Layer::backprop`] is the layer's one gradient implementation. The
///   caller says what it will read with a [`Need`]:
///   - [`Need::All`] *accumulates* into the layer's parameter gradients
///     (an empty [`GradSlot`] accumulates from zeros; callers reset them
///     with [`Layer::zero_grad`]) and returns `∂L/∂input`;
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

    /// Immutable views of the parameter tensors. Parameter-free layers keep
    /// the empty default.
    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    /// Mutable views of the parameter tensors, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    /// The gradient slots, aligned with [`Layer::params`]. Parameter-free
    /// layers keep the empty default.
    fn grad_slots(&self) -> Vec<&GradSlot> {
        vec![]
    }

    /// Each parameter (mutable) next to its gradient slot, in
    /// [`Layer::params`] order — what an optimizer step walks, with no copy
    /// of either. Parameter-free layers keep the empty default.
    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        vec![]
    }

    /// The parameter gradients the layer holds, in [`Layer::params`] order:
    /// all of them after a gradient call that computed them, none once
    /// they have been released (an optimizer step, [`Layer::zero_grad`]).
    fn grads(&self) -> Vec<&Tensor> {
        self.grad_slots()
            .into_iter()
            .filter_map(GradSlot::get)
            .collect()
    }

    /// Mutable views of the parameter gradients, aligned with
    /// [`Layer::params`]: an empty slot is drawn zero-filled first, so each
    /// view starts from what the slot read as.
    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        self.params_and_grads()
            .into_iter()
            .map(|(p, g)| g.draw(p.shape(), true))
            .collect()
    }

    /// Hands every gradient buffer back to the workspace; the gradients
    /// read as zeros until the next gradient call draws them again.
    fn release_grads(&mut self) {
        for (_, g) in self.params_and_grads() {
            g.release();
        }
    }

    /// Resets all parameter gradients to zero — by releasing them.
    fn zero_grad(&mut self) {
        self.release_grads();
    }

    /// Human-readable layer name for debugging and summaries.
    fn name(&self) -> String;

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
