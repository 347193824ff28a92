//! The MD-GAN server: hosts the single generator `G` (§IV-B).

use crate::arch::ArchSpec;
use crate::config::GanHyper;
use md_nn::gan::Generator;
use md_nn::layer::Layer;
use md_nn::optim::{Adam, AdamState};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// One generated batch kept server-side: the noise (and labels) that
/// produced it, so the backward pass can be replayed when feedbacks arrive.
struct PendingBatch {
    z: Tensor,
    labels: Vec<usize>,
}

/// The server's generator-learning state.
pub struct MdServer {
    /// The single generator `G` with parameters `w`.
    pub gen: Generator,
    opt_g: Adam,
    hyper: GanHyper,
    rng: Rng64,
    pending: Vec<PendingBatch>,
}

impl MdServer {
    /// Builds the generator and its optimizer.
    pub fn new(spec: &ArchSpec, hyper: GanHyper, rng: &mut Rng64) -> Self {
        let gen = spec.build_generator(rng);
        MdServer {
            gen,
            opt_g: Adam::new(hyper.adam_g),
            hyper,
            rng: rng.fork(0x5E12),
            pending: Vec::new(),
        }
    }

    /// Algorithm 1, server lines 27-32: generates `k` batches
    /// `K = {X(1), ..., X(k)}` of size `b`, remembering the noise/labels.
    ///
    /// Returns the generated images (and their conditioning labels) per
    /// batch.
    pub fn generate_batches(&mut self, k: usize) -> Vec<(Tensor, Vec<usize>)> {
        assert!(k >= 1, "k must be at least 1");
        self.pending.clear();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            let z = self.gen.sample_z(self.hyper.batch, &mut self.rng);
            let labels = self.gen.sample_labels(self.hyper.batch, &mut self.rng);
            let imgs = self.gen.generate(&z, &labels, true);
            self.pending.push(PendingBatch {
                z,
                labels: labels.clone(),
            });
            out.push((imgs, labels));
        }
        out
    }

    /// The paper's SPLIT: worker `n` (0-based) with `k` batches receives
    /// `X_g = X(n mod k)` and `X_d = X((n+1) mod k)`.
    pub fn assign(worker_index: usize, k: usize) -> (usize, usize) {
        (worker_index % k, (worker_index + 1) % k)
    }

    /// SPLIT rebalanced over an explicit alive view (elastic membership):
    /// the worker at position `p` of the ascending alive list gets the
    /// paper's formula applied to `p` rather than to its absolute slot, so
    /// batch load stays balanced as workers come and go. Reduces to
    /// [`assign`](Self::assign) when the view is the full `0..n`.
    ///
    /// Returns `None` for workers outside the view.
    pub fn assign_in_view(alive: &[usize], slot: usize, k: usize) -> Option<(usize, usize)> {
        alive
            .iter()
            .position(|&w| w == slot)
            .map(|p| Self::assign(p, k))
    }

    /// Algorithm 1, server lines 36-40: merges the feedbacks
    /// `F_n = ∂B̃(X_g^n)/∂x` into `Δw` and applies one Adam update.
    ///
    /// `feedbacks` pairs each worker's generated-batch id with its gradient;
    /// `n_alive` is the number of contributing workers (the denominator of
    /// the `1/(N·b)` average — the `1/b` part is already inside each
    /// feedback, see `md_nn::gan::gen_loss`).
    pub fn apply_feedbacks(&mut self, feedbacks: &[(usize, Tensor)], n_alive: usize) {
        assert!(n_alive > 0, "no alive workers to average over");
        if feedbacks.is_empty() {
            return;
        }
        let scale = 1.0 / n_alive as f32;

        // Group the feedbacks by generated batch.
        let k = self.pending.len();
        let mut grouped: Vec<Option<Tensor>> = (0..k).map(|_| None).collect();
        for (g_id, grad) in feedbacks {
            assert!(*g_id < k, "feedback for unknown batch {g_id}");
            match &mut grouped[*g_id] {
                Some(acc) => acc.add_assign(grad),
                slot => *slot = Some(grad.clone()),
            }
        }

        // Replay each batch's forward pass and backpropagate its merged
        // gradient; parameter gradients accumulate across batches.
        self.gen.net.zero_grad();
        for (g_id, grad) in grouped.into_iter().enumerate() {
            let Some(mut grad) = grad else { continue };
            grad.scale_inplace(scale);
            let p = &self.pending[g_id];
            let _ = self.gen.generate(&p.z, &p.labels, true);
            self.gen.backward(&grad);
        }
        self.clip_and_step();
    }

    fn clip_and_step(&mut self) {
        if self.hyper.clip_grad_norm > 0.0 {
            self.gen
                .net
                .clip_grad_norm_per_layer(self.hyper.clip_grad_norm);
        }
        self.opt_g.step(&mut self.gen.net);
    }

    /// Robust variant of [`MdServer::apply_feedbacks`] (§VII.3): each
    /// batch group's feedbacks are merged with the given
    /// [`Aggregation`](crate::byzantine::Aggregation) instead of summed.
    /// `Aggregation::Mean` delegates to the exact plain-average path.
    ///
    /// The consensus gradient of a group of size `g` is weighted by
    /// `g / n_alive`, so with honest workers every aggregator reduces to
    /// the same expected update as the plain average.
    pub fn apply_feedbacks_robust(
        &mut self,
        feedbacks: &[(usize, Tensor)],
        n_alive: usize,
        aggregation: crate::byzantine::Aggregation,
    ) {
        use crate::byzantine::Aggregation;
        if matches!(aggregation, Aggregation::Mean) {
            return self.apply_feedbacks(feedbacks, n_alive);
        }
        assert!(n_alive > 0, "no alive workers to average over");
        if feedbacks.is_empty() {
            return;
        }
        let k = self.pending.len();
        let mut groups: Vec<Vec<&Tensor>> = (0..k).map(|_| Vec::new()).collect();
        for (g_id, grad) in feedbacks {
            assert!(*g_id < k, "feedback for unknown batch {g_id}");
            groups[*g_id].push(grad);
        }
        self.gen.net.zero_grad();
        for (g_id, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let weight = group.len() as f32 / n_alive as f32;
            let consensus = aggregation.aggregate(&group).scale(weight);
            let p = &self.pending[g_id];
            let _ = self.gen.generate(&p.z, &p.labels, true);
            self.gen.backward(&consensus);
        }
        self.clip_and_step();
    }

    /// Applies one optimizer step using whatever gradients are currently
    /// accumulated in the generator — the asynchronous runtime (§VII.1)
    /// backpropagates each feedback itself and then calls this.
    pub fn apply_external_step(&mut self) {
        self.clip_and_step();
    }

    /// Flat generator parameters (for tests and checkpoints).
    pub fn gen_params(&self) -> Vec<f32> {
        self.gen.net.get_params_flat()
    }

    /// Generator parameter count `|w|`.
    pub fn gen_params_len(&self) -> usize {
        self.gen.num_params()
    }

    /// Installs flat generator parameters (checkpoint restore).
    pub fn set_gen_params(&mut self, params: &[f32]) {
        self.gen.net.set_params_flat(params);
    }

    /// Adam moments of the generator optimizer (checkpointing).
    pub fn opt_state(&self) -> AdamState {
        self.opt_g.export_state()
    }

    /// Restores the generator optimizer's Adam moments.
    pub fn import_opt_state(&mut self, state: &AdamState) -> Result<(), String> {
        self.opt_g.import_state(state, &self.gen.net)
    }

    /// The generator learning rate currently in effect.
    pub fn gen_lr(&self) -> f32 {
        self.opt_g.lr()
    }

    /// Overrides the generator learning rate (the supervisor drops it
    /// after a rollback when configured to).
    pub fn set_gen_lr(&mut self, lr: f32) {
        self.opt_g.set_lr(lr);
    }

    /// Serializable noise-RNG stream position (checkpointing).
    pub fn rng_state_words(&self) -> [u64; Rng64::STATE_WORDS] {
        self.rng.state_words()
    }

    /// Restores the noise-RNG stream position.
    pub fn set_rng_state_words(&mut self, words: [u64; Rng64::STATE_WORDS]) {
        self.rng = Rng64::from_state_words(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> MdServer {
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut rng = Rng64::seed_from_u64(1);
        MdServer::new(
            &spec,
            GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn generate_batches_produces_k_batches() {
        let mut s = server();
        let batches = s.generate_batches(3);
        assert_eq!(batches.len(), 3);
        for (imgs, labels) in &batches {
            assert_eq!(imgs.shape(), &[4, 1, 12, 12]);
            assert_eq!(labels.len(), 4);
        }
        // Batches are distinct (different noise).
        assert_ne!(batches[0].0.data(), batches[1].0.data());
    }

    #[test]
    fn assign_follows_paper_split() {
        // k = 3: worker 0 -> (0, 1), worker 1 -> (1, 2), worker 2 -> (2, 0),
        // worker 3 -> (0, 1) ...
        assert_eq!(MdServer::assign(0, 3), (0, 1));
        assert_eq!(MdServer::assign(1, 3), (1, 2));
        assert_eq!(MdServer::assign(2, 3), (2, 0));
        assert_eq!(MdServer::assign(3, 3), (0, 1));
        // k = 1: both batches are the single one.
        assert_eq!(MdServer::assign(5, 1), (0, 0));
    }

    #[test]
    fn assign_in_view_rebalances_over_alive_positions() {
        // View {0, 2, 5} with k = 2: positions 0, 1, 2 get the formula.
        let alive = [0usize, 2, 5];
        assert_eq!(MdServer::assign_in_view(&alive, 0, 2), Some((0, 1)));
        assert_eq!(MdServer::assign_in_view(&alive, 2, 2), Some((1, 0)));
        assert_eq!(MdServer::assign_in_view(&alive, 5, 2), Some((0, 1)));
        // Departed workers get nothing.
        assert_eq!(MdServer::assign_in_view(&alive, 1, 2), None);
    }

    #[test]
    fn assign_in_view_reduces_to_paper_formula_on_full_view() {
        for n in 1..=12usize {
            let alive: Vec<usize> = (0..n).collect();
            for k in 1..=n {
                for w in 0..n {
                    assert_eq!(
                        MdServer::assign_in_view(&alive, w, k),
                        Some(MdServer::assign(w, k)),
                        "n={n} k={k} w={w}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_conservation_over_arbitrary_views() {
        // For any alive set and any valid k: every alive worker gets
        // exactly one (X_g, X_d) pair, every batch is consumed, and the
        // per-batch load spread is at most one worker.
        let views: [&[usize]; 5] = [
            &[0],
            &[3, 7],
            &[0, 1, 4, 5, 9],
            &[2, 3, 5, 8, 13, 21, 34],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 17, 19, 23],
        ];
        for alive in views {
            let n = alive.len();
            for k in 1..=n {
                let mut g_load = vec![0usize; k];
                let mut d_load = vec![0usize; k];
                for &w in alive {
                    let (g, d) = MdServer::assign_in_view(alive, w, k).unwrap();
                    assert!(g < k && d < k, "batch ids stay in range");
                    g_load[g] += 1;
                    d_load[d] += 1;
                }
                assert_eq!(g_load.iter().sum::<usize>(), n, "one X_g per worker");
                assert_eq!(d_load.iter().sum::<usize>(), n, "one X_d per worker");
                for load in [&g_load, &d_load] {
                    assert!(load.iter().all(|&c| c >= 1), "every batch consumed");
                    let spread = load.iter().max().unwrap() - load.iter().min().unwrap();
                    assert!(spread <= 1, "balanced within one: {load:?}");
                }
            }
        }
    }

    #[test]
    fn apply_feedbacks_moves_generator() {
        let mut s = server();
        let batches = s.generate_batches(2);
        let before = s.gen_params();
        let mut rng = Rng64::seed_from_u64(3);
        let f0 = Tensor::randn(batches[0].0.shape(), &mut rng).scale(0.01);
        let f1 = Tensor::randn(batches[1].0.shape(), &mut rng).scale(0.01);
        s.apply_feedbacks(&[(0, f0), (1, f1)], 2);
        assert_ne!(before, s.gen_params());
    }

    #[test]
    fn empty_feedbacks_are_a_noop_update() {
        let mut s = server();
        s.generate_batches(1);
        let before = s.gen_params();
        s.apply_feedbacks(&[], 1);
        assert_eq!(before, s.gen_params());
    }

    #[test]
    fn shared_batch_feedbacks_sum() {
        // Two workers sharing batch 0 must produce the same update as one
        // worker sending the summed gradient (with the same n_alive).
        let mut rng = Rng64::seed_from_u64(5);
        let fa = Tensor::randn(&[4, 1, 12, 12], &mut rng).scale(0.01);
        let fb = Tensor::randn(&[4, 1, 12, 12], &mut rng).scale(0.01);
        let mut sum = fa.clone();
        sum.add_assign(&fb);

        let mut s1 = server();
        s1.generate_batches(1);
        s1.apply_feedbacks(&[(0, fa.clone()), (0, fb.clone())], 2);

        let mut s2 = server();
        s2.generate_batches(1);
        s2.apply_feedbacks(&[(0, sum)], 2);

        assert_eq!(s1.gen_params(), s2.gen_params());
    }

    #[test]
    fn averaging_uses_n_alive() {
        // Same single feedback averaged over 1 vs 2 workers gives different
        // effective gradients (half), hence different Adam updates.
        let mut rng = Rng64::seed_from_u64(6);
        let f = Tensor::randn(&[4, 1, 12, 12], &mut rng).scale(0.01);

        let mut s1 = server();
        s1.generate_batches(1);
        s1.apply_feedbacks(&[(0, f.clone())], 1);

        let mut s2 = server();
        s2.generate_batches(1);
        s2.apply_feedbacks(&[(0, f)], 2);

        assert_ne!(s1.gen_params(), s2.gen_params());
    }

    #[test]
    #[should_panic(expected = "unknown batch")]
    fn rejects_feedback_for_missing_batch() {
        let mut s = server();
        s.generate_batches(1);
        let f = Tensor::zeros(&[4, 1, 12, 12]);
        s.apply_feedbacks(&[(3, f)], 1);
    }
}
