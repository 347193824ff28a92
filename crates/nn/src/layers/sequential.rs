//! The [`Sequential`] container: an ordered stack of layers that is itself a
//! [`Layer`], plus the flat-parameter utilities that power MD-GAN's
//! discriminator swap and FL-GAN's federated averaging.

use crate::layer::{GradSlot, Layer, Need};
use md_tensor::Tensor;
use std::borrow::Cow;

/// An ordered stack of layers applied in sequence.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True iff the stack has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// A short human-readable summary: layer names and parameter count.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        for l in &self.layers {
            s.push_str(&format!("{} [{} params]\n", l.name(), l.num_params()));
        }
        s.push_str(&format!("total parameters: {}", self.num_params()));
        s
    }

    // ------------------------------------------------ flat parameter vector

    /// Serializes all parameters into one flat `Vec<f32>` (layer order,
    /// then parameter order within the layer).
    ///
    /// This is the unit that MD-GAN workers ship to each other during a
    /// discriminator swap and that FL-GAN averages at the server; its byte
    /// size (`4 * len`) is what the traffic accounting charges.
    pub fn get_params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for l in &self.layers {
            for p in l.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Loads parameters from a flat vector produced by
    /// [`Sequential::get_params_flat`] on an identically-shaped network.
    ///
    /// # Panics
    /// Panics if the length does not match.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        let expect = self.num_params();
        assert_eq!(
            flat.len(),
            expect,
            "flat parameter length {} != expected {}",
            flat.len(),
            expect
        );
        let mut off = 0;
        for l in &mut self.layers {
            for p in l.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
    }

    /// Exchanges every parameter tensor with `other`'s, an identically
    /// shaped network: a discriminator swap as a move. The tensors
    /// [`Sequential::set_params_flat`] writes change hands and no element is
    /// copied; everything else (gradient slots, caches, BatchNorm running
    /// statistics) stays where it is.
    ///
    /// # Panics
    /// Panics if the parameter layouts differ.
    pub fn swap_params(&mut self, other: &mut Sequential) {
        let (mine, theirs) = (self.params_mut(), other.params_mut());
        assert_eq!(mine.len(), theirs.len(), "swap_params: layouts differ");
        for (a, b) in mine.into_iter().zip(theirs) {
            assert_eq!(a.shape(), b.shape(), "swap_params: shapes differ");
            std::mem::swap(a, b);
        }
    }

    /// Copies `other`'s parameters into this network's tensors, in place:
    /// [`Sequential::set_params_flat`] from an identically shaped network
    /// instead of a flat vector.
    ///
    /// # Panics
    /// Panics if the parameter layouts differ.
    pub fn copy_params_from(&mut self, other: &Sequential) {
        let (mine, theirs) = (self.params_mut(), other.params());
        assert_eq!(mine.len(), theirs.len(), "copy_params_from: layouts differ");
        for (a, b) in mine.into_iter().zip(theirs) {
            assert_eq!(a.shape(), b.shape(), "copy_params_from: shapes differ");
            a.data_mut().copy_from_slice(b.data());
        }
    }

    /// Serializes all accumulated gradients into one flat vector, aligned
    /// with [`Sequential::get_params_flat`]; an empty slot reads as zeros.
    pub fn get_grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for (p, g) in self.params().into_iter().zip(self.grad_slots()) {
            match g.get() {
                Some(g) => out.extend_from_slice(g.data()),
                None => out.resize(out.len() + p.len(), 0.0),
            }
        }
        out
    }

    /// Clips each layer's accumulated gradient to an L2 norm of at most
    /// `max_norm` (per-layer, not global — a single exploding layer is
    /// rescaled without muting the others). Returns how many layers were
    /// clipped. Layers whose gradients contain NaN/Inf are left untouched
    /// (rescaling cannot repair them; the health monitor must catch them).
    /// An empty slot is zeros: it adds nothing to the norm and stays empty.
    pub fn clip_grad_norm_per_layer(&mut self, max_norm: f32) -> usize {
        assert!(max_norm > 0.0, "clip_grad_norm_per_layer({max_norm})");
        let mut clipped = 0;
        for l in &mut self.layers {
            let mut sq = 0.0f64;
            let mut finite = true;
            for g in l.grads() {
                for &v in g.data() {
                    if !v.is_finite() {
                        finite = false;
                    }
                    sq += (v as f64) * (v as f64);
                }
            }
            let norm = sq.sqrt() as f32;
            if finite && norm > max_norm {
                let scale = max_norm / norm;
                for (_, g) in l.params_and_grads() {
                    for v in g.get_mut().into_iter().flat_map(Tensor::data_mut) {
                        *v *= scale;
                    }
                }
                clipped += 1;
            }
        }
        clipped
    }

    /// Fused parameter-health probe: the maximum absolute parameter value,
    /// or `None` if any parameter is NaN/Inf (see
    /// [`Tensor::finite_max_abs`]).
    pub fn params_finite_max_abs(&self) -> Option<f32> {
        let mut mx = 0.0f32;
        for l in &self.layers {
            for p in l.params() {
                mx = mx.max(p.finite_max_abs()?);
            }
        }
        Some(mx)
    }

    /// Applies `update` to every (index, parameter, its accumulated gradient)
    /// triple in [`Layer::params`] order — the bridge the optimizers use.
    /// Both tensors are borrowed in place from the layer that owns them; the
    /// gradient is `None` where the slot is empty (zeros).
    pub fn visit_params_and_grads(
        &mut self,
        mut update: impl FnMut(usize, &mut Tensor, Option<&Tensor>),
    ) {
        debug_assert_eq!(
            self.params_and_grads().len(),
            self.params().len(),
            "a layer pairs up a different number of tensors than it owns"
        );
        for (idx, (p, g)) in self.params_and_grads().into_iter().enumerate() {
            update(idx, p, g.get());
        }
    }

    /// The one gradient walk: every child gets `backprop` (`acc`) or
    /// `backprop_first` (`!acc`), and hands its cache back to the workspace
    /// as soon as its gradient call has used it.
    fn gradient(&mut self, grad_out: &Tensor, need: Need, acc: bool) -> Option<Tensor> {
        // The chain ends at `first`. Under `Need::Params` that is the first
        // layer owning parameters: nothing in front of it has a gradient
        // anyone reads, so it is asked for its parameter gradients alone
        // and the parameter-free layers before it are not visited. The
        // layers behind it must still hand their input gradient down.
        let (first, behind) = match need {
            Need::Params => (
                self.layers.iter().position(|l| !l.params().is_empty())?,
                Need::All,
            ),
            Need::All | Need::Input => (0, need),
        };
        let call = |l: &mut Box<dyn Layer>, g: &Tensor, need: Need| {
            let gx = if acc {
                l.backprop(g, need)
            } else {
                l.backprop_first(g, need)
            };
            l.release_cache();
            gx
        };
        let mut g = Cow::Borrowed(grad_out);
        for l in self.layers.iter_mut().skip(first + 1).rev() {
            let gx = call(l, &g, behind);
            g = Cow::Owned(gx.expect("a layer asked for its input gradient returns one"));
        }
        for l in &mut self.layers[..first] {
            l.release_cache();
        }
        match self.layers.get_mut(first) {
            Some(l) => call(l, &g, need),
            // The empty stack is the identity.
            None => Some(g.into_owned()),
        }
    }
}

impl Layer for Sequential {
    fn forward_stacked(&mut self, x: &Tensor, groups: usize, train: bool) -> Tensor {
        let mut h = Cow::Borrowed(x);
        for l in &mut self.layers {
            h = Cow::Owned(l.forward_stacked(&h, groups, train));
        }
        h.into_owned()
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, true)
    }

    fn backprop_first(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        self.gradient(grad_out, need, false)
    }

    fn release_cache(&mut self) {
        for l in &mut self.layers {
            l.release_cache();
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn grad_slots(&self) -> Vec<&GradSlot> {
        self.layers.iter().flat_map(|l| l.grad_slots()).collect()
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut GradSlot)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    fn release_grads(&mut self) {
        for l in &mut self.layers {
            l.release_grads();
        }
    }

    fn name(&self) -> String {
        format!("Sequential[{} layers]", self.layers.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layers::{Dense, LeakyRelu, Tanh};
    use md_tensor::assert_close;
    use md_tensor::rng::Rng64;

    fn mlp(rng: &mut Rng64) -> Sequential {
        Sequential::new()
            .push(Dense::new(4, 8, Init::XavierUniform, rng))
            .push(LeakyRelu::new(0.2))
            .push(Dense::new(8, 3, Init::XavierUniform, rng))
            .push(Tanh::new())
    }

    #[test]
    fn forward_chains_layers() {
        let mut rng = Rng64::seed_from_u64(1);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[2, 3]);
        assert!(y.data().iter().all(|&v| (-1.0..=1.0).contains(&v)));
    }

    #[test]
    fn param_flat_roundtrip() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut net = mlp(&mut rng);
        let flat = net.get_params_flat();
        assert_eq!(flat.len(), net.num_params());
        assert_eq!(flat.len(), 4 * 8 + 8 + 8 * 3 + 3);

        // Clone into a second identical-architecture net.
        let mut rng2 = Rng64::seed_from_u64(99);
        let mut net2 = mlp(&mut rng2);
        assert_ne!(net2.get_params_flat(), flat);
        net2.set_params_flat(&flat);
        assert_eq!(net2.get_params_flat(), flat);

        // Equal parameters => equal outputs.
        let x = Tensor::randn(&[3, 4], &mut rng);
        let y1 = net.forward(&x, false);
        let y2 = net2.forward(&x, false);
        assert_close(y1.data(), y2.data(), 1e-6);
    }

    #[test]
    fn swap_and_copy_move_exactly_the_flat_parameters() {
        let mut rng = Rng64::seed_from_u64(9);
        let (mut a, mut b) = (mlp(&mut rng), mlp(&mut rng));
        let (pa, pb) = (a.get_params_flat(), b.get_params_flat());
        a.swap_params(&mut b);
        assert_eq!((a.get_params_flat(), b.get_params_flat()), (pb.clone(), pa));
        b.copy_params_from(&a);
        assert_eq!((a.get_params_flat(), b.get_params_flat()), (pb.clone(), pb));
    }

    #[test]
    #[should_panic(expected = "flat parameter length")]
    fn set_params_rejects_wrong_length() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut net = mlp(&mut rng);
        net.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn gradcheck_whole_stack() {
        crate::gradcheck::check_layer(
            |rng| {
                Box::new(
                    Sequential::new()
                        .push(Dense::new(3, 5, Init::XavierUniform, rng))
                        .push(LeakyRelu::new(0.2))
                        .push(Dense::new(5, 2, Init::XavierUniform, rng)),
                )
            },
            &[2, 3],
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = Rng64::seed_from_u64(4);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        assert!(net.get_grads_flat().iter().any(|&g| g != 0.0));
        net.zero_grad();
        assert!(net.get_grads_flat().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn per_layer_clipping_rescales_only_exploding_layers() {
        let mut rng = Rng64::seed_from_u64(6);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        // A huge output gradient explodes every layer's grad norm.
        net.backward(&Tensor::full(y.shape(), 1e6));
        let clipped = net.clip_grad_norm_per_layer(1.0);
        assert!(clipped >= 1, "nothing clipped");
        // Each parameterized layer's grad norm now ≤ 1 (+ float fuzz).
        for l in &net.layers {
            let sq: f32 = l.grads().iter().flat_map(|g| g.data()).map(|v| v * v).sum();
            assert!(sq.sqrt() <= 1.0 + 1e-4, "layer norm {}", sq.sqrt());
        }
        // Already-small gradients are untouched.
        net.zero_grad();
        let y = net.forward(&x, true);
        net.backward(&Tensor::full(y.shape(), 1e-8));
        let before = net.get_grads_flat();
        assert_eq!(net.clip_grad_norm_per_layer(1.0), 0);
        assert_eq!(net.get_grads_flat(), before);
    }

    #[test]
    fn clipping_leaves_non_finite_grads_for_the_monitor() {
        let mut rng = Rng64::seed_from_u64(7);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape()));
        net.grads_mut()[0].data_mut()[0] = f32::NAN;
        net.clip_grad_norm_per_layer(1.0);
        assert!(net.get_grads_flat()[0].is_nan(), "NaN must survive clip");
    }

    #[test]
    fn params_health_probe_detects_poison() {
        let mut rng = Rng64::seed_from_u64(8);
        let mut net = mlp(&mut rng);
        assert!(net.params_finite_max_abs().is_some());
        net.params_mut()[0].data_mut()[0] = f32::INFINITY;
        assert_eq!(net.params_finite_max_abs(), None);
    }

    #[test]
    fn summary_mentions_layers() {
        let mut rng = Rng64::seed_from_u64(5);
        let net = mlp(&mut rng);
        let s = net.summary();
        assert!(s.contains("Dense(4→8)"));
        assert!(s.contains("total parameters"));
    }
}
