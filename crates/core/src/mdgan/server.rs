//! The MD-GAN server: hosts the single generator `G` (§IV-B).

use crate::arch::ArchSpec;
use crate::checkpoint::Checkpoint;
use crate::config::GanHyper;
use crate::error::{ckerr, TrainError};
use md_nn::gan::Generator;
use md_nn::optim::{Adam, AdamState};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// The server's generator-learning state.
pub struct MdServer {
    /// The single generator `G` with parameters `w`.
    pub gen: Generator,
    opt_g: Adam,
    hyper: GanHyper,
    /// Key of the noise streams: iteration `tick`'s noise and labels come
    /// from stream `(key, 0, tick)`.
    key: u64,
    /// Batches in the stack the generator last ran forward on — the `k` of
    /// the latest [`MdServer::generate_batches`], whose activations `gen`
    /// still holds for the backward pass.
    stacked: usize,
}

impl MdServer {
    /// Builds the generator and its optimizer.
    pub fn new(spec: &ArchSpec, hyper: GanHyper, rng: &mut Rng64) -> Self {
        let gen = spec.build_generator(rng);
        MdServer {
            gen,
            opt_g: Adam::new(hyper.adam_g),
            hyper,
            key: rng.next_u64(),
            stacked: 0,
        }
    }

    /// Algorithm 1, server lines 27-32: generates `k` batches
    /// `K = {X(1), ..., X(k)}` of size `b` for global iteration `tick`. The
    /// noise and labels are drawn batch by batch from the iteration's
    /// stream and run through the generator as one `k·b`-row stack, whose
    /// activations stay in `gen` until the feedbacks arrive.
    ///
    /// Returns the generated images (and their conditioning labels) per
    /// batch.
    pub fn generate_batches(&mut self, k: usize, tick: u64) -> Vec<(Tensor, Vec<usize>)> {
        assert!(k >= 1, "k must be at least 1");
        let mut rng = self.noise_stream(tick);
        let (zs, labels): (Vec<Tensor>, Vec<Vec<usize>>) = (0..k)
            .map(|_| {
                let z = self.gen.sample_z(self.hyper.batch, &mut rng);
                (z, self.gen.sample_labels(self.hyper.batch, &mut rng))
            })
            .unzip();
        let imgs = self
            .gen
            .generate_stacked(&Tensor::concat0(&zs), &labels.concat(), k, true);
        self.stacked = k;
        imgs.into_split0(k).into_iter().zip(labels).collect()
    }

    /// The stream of iteration `tick`. Not the Adam step count: an
    /// iteration that misses its quorum steps no Adam.
    fn noise_stream(&self, tick: u64) -> Rng64 {
        Rng64::keyed(self.key, 0, tick)
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
        // Each batch's rows: the sum of its feedbacks in arrival order.
        let mut grad = self.zero_stack_like(&feedbacks[0].1);
        let mut answered = vec![false; self.stacked];
        for (g_id, feedback) in feedbacks {
            let rows = self.batch_rows(&mut grad, *g_id, feedback);
            if std::mem::replace(&mut answered[*g_id], true) {
                for (r, &f) in rows.iter_mut().zip(feedback.data()) {
                    *r += f;
                }
            } else {
                rows.copy_from_slice(feedback.data());
            }
        }
        grad.scale_inplace(scale);
        self.step_on(&grad);
    }

    /// A zero gradient for the whole stack: `stacked` batches shaped like
    /// `feedback`. A batch nobody answers keeps its zero rows, which add
    /// nothing to any parameter gradient.
    fn zero_stack_like(&self, feedback: &Tensor) -> Tensor {
        let mut dims = feedback.shape().to_vec();
        dims[0] *= self.stacked;
        Tensor::zeros(&dims)
    }

    /// Batch `g_id`'s rows of the stacked gradient.
    fn batch_rows<'a>(
        &self,
        grad: &'a mut Tensor,
        g_id: usize,
        feedback: &Tensor,
    ) -> &'a mut [f32] {
        assert!(g_id < self.stacked, "feedback for unknown batch {g_id}");
        let (fs, gs) = (feedback.shape(), grad.shape());
        assert!(
            fs[0] * self.stacked == gs[0] && fs[1..] == gs[1..],
            "feedback shape {fs:?} is not one batch of the {gs:?} stack"
        );
        let len = feedback.len();
        &mut grad.data_mut()[g_id * len..(g_id + 1) * len]
    }

    /// One backward pass over the stack [`MdServer::generate_batches`] left
    /// in the generator, then one Adam update.
    fn step_on(&mut self, grad: &Tensor) {
        self.gen.backward_first(grad);
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
        let mut groups: Vec<Vec<&Tensor>> = vec![Vec::new(); self.stacked];
        for (g_id, grad) in feedbacks {
            assert!(*g_id < self.stacked, "feedback for unknown batch {g_id}");
            groups[*g_id].push(grad);
        }
        let mut grad = self.zero_stack_like(&feedbacks[0].1);
        for (g_id, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let weight = group.len() as f32 / n_alive as f32;
            let consensus = aggregation.aggregate(group);
            let rows = self.batch_rows(&mut grad, g_id, &consensus);
            for (r, &c) in rows.iter_mut().zip(consensus.data()) {
                *r = c * weight;
            }
        }
        self.step_on(&grad);
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

    /// Writes the server half of the checkpoint layout every MD-GAN
    /// runtime shares — `generator`, `opt_g_m`, `opt_g_v` — and returns the
    /// Adam step count, which `adam_t` leads with.
    pub(crate) fn push_sections(&self, ck: &mut Checkpoint) -> u64 {
        let opt = self.opt_g.export_state();
        ck.push("generator", self.gen_params());
        ck.push("opt_g_m", opt.m);
        ck.push("opt_g_v", opt.v);
        opt.t
    }

    /// Reads back what [`push_sections`](Self::push_sections) wrote, the
    /// step count from the head of `adam_t` (whose length
    /// [`restore_workers`](super::worker::restore_workers) checks).
    pub(crate) fn restore_sections(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        let gen = ck.require_len("generator", self.gen_params_len());
        self.set_gen_params(gen.map_err(ckerr)?);
        let adam_t = ck.require_u64("adam_t").map_err(ckerr)?;
        let opt = AdamState {
            t: adam_t.first().copied().unwrap_or(0),
            m: ck.require("opt_g_m").map_err(ckerr)?.to_vec(),
            v: ck.require("opt_g_v").map_err(ckerr)?.to_vec(),
        };
        self.opt_g
            .import_state(&opt, &self.gen.net)
            .map_err(TrainError::Checkpoint)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::Aggregation;
    use md_nn::layer::Layer;
    use md_tensor::parallel::scoped_max_threads;

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
        let batches = s.generate_batches(3, 0);
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
        let batches = s.generate_batches(2, 0);
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
        s.generate_batches(1, 0);
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
        s1.generate_batches(1, 0);
        s1.apply_feedbacks(&[(0, fa.clone()), (0, fb.clone())], 2);

        let mut s2 = server();
        s2.generate_batches(1, 0);
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
        s1.generate_batches(1, 0);
        s1.apply_feedbacks(&[(0, f.clone())], 1);

        let mut s2 = server();
        s2.generate_batches(1, 0);
        s2.apply_feedbacks(&[(0, f)], 2);

        assert_ne!(s1.gen_params(), s2.gen_params());
    }

    #[test]
    #[should_panic(expected = "unknown batch")]
    fn rejects_feedback_for_missing_batch() {
        let mut s = server();
        s.generate_batches(1, 0);
        let f = Tensor::zeros(&[4, 1, 12, 12]);
        s.apply_feedbacks(&[(3, f)], 1);
    }

    #[test]
    #[should_panic(expected = "is not one batch of the")]
    fn rejects_feedback_of_another_shape() {
        let mut s = server();
        s.generate_batches(2, 0);
        let fs = [
            (0, Tensor::zeros(&[4, 1, 12, 12])),
            (1, Tensor::zeros(&[4, 1, 12, 6])),
        ];
        s.apply_feedbacks(&fs, 2);
    }

    // ------------------------------------------------------------------
    // The stacked pass against the replay path it replaced.
    // ------------------------------------------------------------------

    /// The server as it ran before the stacked pass, kept as the reference:
    /// every batch is generated by a forward pass of its own, and because a
    /// layer caches one forward, replayed from its noise before its merged
    /// gradient is backpropagated — `2k` forwards and up to `k` backwards
    /// whose parameter gradients accumulate in batch order.
    struct ReplayServer {
        inner: MdServer,
        /// Noise and labels of each generated batch.
        pending: Vec<(Tensor, Vec<usize>)>,
    }

    impl ReplayServer {
        fn generate_batches(&mut self, k: usize, tick: u64) -> Vec<(Tensor, Vec<usize>)> {
            let s = &mut self.inner;
            self.pending.clear();
            let mut out = Vec::with_capacity(k);
            let mut rng = s.noise_stream(tick);
            for _ in 0..k {
                let z = s.gen.sample_z(s.hyper.batch, &mut rng);
                let labels = s.gen.sample_labels(s.hyper.batch, &mut rng);
                let imgs = s.gen.generate(&z, &labels, true);
                self.pending.push((z, labels.clone()));
                out.push((imgs, labels));
            }
            out
        }

        fn apply_feedbacks_robust(
            &mut self,
            feedbacks: &[(usize, Tensor)],
            n_alive: usize,
            aggregation: Aggregation,
        ) {
            let s = &mut self.inner;
            let mut groups: Vec<Vec<&Tensor>> = vec![Vec::new(); self.pending.len()];
            for (g_id, grad) in feedbacks {
                groups[*g_id].push(grad);
            }
            s.gen.net.zero_grad();
            for (group, (z, labels)) in groups.iter().zip(&self.pending) {
                let Some((first, rest)) = group.split_first() else {
                    continue;
                };
                let merged = if matches!(aggregation, Aggregation::Mean) {
                    let mut sum = (*first).clone();
                    for grad in rest {
                        sum.add_assign(grad);
                    }
                    sum.scale_inplace(1.0 / n_alive as f32);
                    sum
                } else {
                    let weight = group.len() as f32 / n_alive as f32;
                    aggregation.aggregate(group).scale(weight)
                };
                let _ = s.gen.generate(z, labels, true);
                s.gen.backward(&merged);
            }
            s.clip_and_step();
        }
    }

    /// A stacked server and its replay reference, same seed.
    fn server_pair(spec: &ArchSpec, batch: usize) -> (MdServer, ReplayServer) {
        let make = || {
            let hyper = GanHyper {
                batch,
                ..GanHyper::default()
            };
            MdServer::new(spec, hyper, &mut Rng64::seed_from_u64(1))
        };
        let reference = ReplayServer {
            inner: make(),
            pending: Vec::new(),
        };
        (make(), reference)
    }

    /// One feedback per worker in `workers`, SPLIT over `k` batches.
    fn feedbacks_from(
        workers: &[usize],
        k: usize,
        batch_shape: &[usize],
        rng: &mut Rng64,
    ) -> Vec<(usize, Tensor)> {
        workers
            .iter()
            .map(|&w| {
                let f = Tensor::randn(batch_shape, rng).scale(0.01);
                (MdServer::assign(w, k).0, f)
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn stacked_pass_matches_the_replay_path_bitwise() {
        let specs = [
            ("mlp_mnist_scaled(12)", ArchSpec::mlp_mnist_scaled(12)),
            ("paper_mnist_mlp()", ArchSpec::paper_mnist_mlp()),
            ("cnn_mnist_scaled(16)", ArchSpec::cnn_mnist_scaled(16)),
            ("cnn_cifar_scaled(32)", ArchSpec::cnn_cifar_scaled(32)),
            ("cnn_celeba_scaled(8)", ArchSpec::cnn_celeba_scaled(8)),
        ];
        let aggregations = [
            Aggregation::Mean,
            Aggregation::CoordinateMedian,
            Aggregation::TrimmedMean { trim: 1 },
        ];
        for width in [1, 2, 3] {
            let _guard = scoped_max_threads(width);
            for (name, spec) in &specs {
                for (k, b) in [(1, 4), (2, 7), (3, 10), (5, 3)] {
                    for aggregation in aggregations {
                        let case = format!("{name} k={k} b={b} {aggregation:?} width {width}");
                        let (mut stacked, mut replay) = server_pair(spec, b);
                        let mut rng = Rng64::seed_from_u64(9);
                        // Three workers per batch: the smallest group a
                        // one-sided trim leaves something of.
                        let workers: Vec<usize> = (0..3 * k).collect();
                        for iter in 0..3 {
                            let got = stacked.generate_batches(k, iter);
                            let want = replay.generate_batches(k, iter);
                            assert_eq!(got.len(), k, "{case}");
                            for (j, ((gi, gl), (wi, wl))) in got.iter().zip(&want).enumerate() {
                                assert_eq!(gi.shape(), wi.shape(), "{case}: batch {j} shape");
                                assert_eq!(
                                    bits(gi.data()),
                                    bits(wi.data()),
                                    "{case}: images of batch {j}, iteration {iter}"
                                );
                                assert_eq!(gl, wl, "{case}: labels of batch {j}");
                            }
                            let fs = feedbacks_from(&workers, k, got[0].0.shape(), &mut rng);
                            stacked.apply_feedbacks_robust(&fs, workers.len(), aggregation);
                            replay.apply_feedbacks_robust(&fs, workers.len(), aggregation);
                            assert_eq!(
                                bits(&stacked.gen_params()),
                                bits(&replay.inner.gen_params()),
                                "{case}: gen_params after iteration {iter}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// N = 4, k = 2, workers 1 and 3 crashed: both survivors hold batch 0,
    /// nobody answers batch 1. Its zero rows may turn a `-0.0` the replay
    /// path left alone into `+0.0`; nothing else moves.
    #[test]
    fn a_batch_without_feedback_adds_nothing() {
        for spec in [
            ArchSpec::mlp_mnist_scaled(12),
            ArchSpec::cnn_cifar_scaled(16),
        ] {
            let (mut stacked, mut replay) = server_pair(&spec, 4);
            let mut rng = Rng64::seed_from_u64(9);
            for tick in 0..3 {
                let shape = stacked.generate_batches(2, tick)[0].0.shape().to_vec();
                replay.generate_batches(2, tick);
                let fs = feedbacks_from(&[0, 2], 2, &shape, &mut rng);
                assert!(fs.iter().all(|(g_id, _)| *g_id == 0));
                stacked.apply_feedbacks(&fs, 2);
                replay.apply_feedbacks_robust(&fs, 2, Aggregation::Mean);
                let got = stacked.gen_params();
                assert!(got.iter().all(|v| v.is_finite()));
                assert!(got == replay.inner.gen_params(), "update moved a value");
            }
        }
    }
}
