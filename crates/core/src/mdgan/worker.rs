//! The MD-GAN worker: hosts `D_n` and its local shard `B_n` (§IV-C).
//!
//! Algorithm 1's worker side is written here once: a worker's turn on one
//! pair of generated batches and the receive side of a swap. The three
//! runtimes call both and keep only their own uplink.

use crate::arch::ArchSpec;
use crate::byzantine::AttackState;
use crate::checkpoint::Checkpoint;
use crate::compression::Codec;
use crate::config::GanHyper;
use crate::error::{ckerr, TrainError};
use md_data::Dataset;
use md_nn::gan::{gen_loss, Discriminator};
use md_nn::layers::Sequential;
use md_nn::optim::{Adam, AdamState};
use md_telemetry::{Event, Phase, Recorder, TraceCtx, Track};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// A generated batch: the images and the labels the generator was
/// conditioned on.
pub(crate) type Batch = (Tensor, Vec<usize>);

/// One worker's state: discriminator, optimizer, shard and the key of its
/// sampling streams. That is all it holds between iterations: the
/// discriminator's gradients exist only inside [`MdWorker::process`], from
/// the D step's backward to its Adam update, in buffers drawn from and
/// handed back to the workspace.
pub struct MdWorker {
    /// 1-based worker id (node id in the simulated cluster).
    pub id: usize,
    disc: Discriminator,
    opt_d: Adam,
    /// Key of the shard-sampling streams: the stream of a turn is
    /// `(key, id, opt_d step count)`. The optimizer stays with the worker
    /// across a swap, so no two turns share one.
    key: u64,
    shard: Dataset,
    hyper: GanHyper,
}

/// What a checkpoint keeps of one worker: `D_n` and its Adam state (the
/// shard is rebuilt from data, and the Adam step count keys the sampler).
pub struct WorkerState {
    /// Flat discriminator parameters `θ`.
    pub disc: Vec<f32>,
    /// Adam step count and moments of the discriminator optimizer.
    pub opt: AdamState,
}

/// Writes the worker half of the checkpoint layout every MD-GAN runtime
/// shares: `disc_n` / `opt_d_n_{m,v}` per present worker
/// (1-based `n`), then `adam_t` (`gen_t` first) and the `alive` mask.
pub(crate) fn push_workers(ck: &mut Checkpoint, states: Vec<Option<WorkerState>>, gen_t: u64) {
    let mut adam_t = vec![gen_t];
    let alive = states.iter().map(|s| u64::from(s.is_some())).collect();
    for (i, state) in states.into_iter().enumerate() {
        let id = i + 1;
        adam_t.push(state.as_ref().map_or(0, |s| s.opt.t));
        let Some(s) = state else { continue };
        ck.push(format!("disc_{id}"), s.disc);
        ck.push(format!("opt_d_{id}_m"), s.opt.m);
        ck.push(format!("opt_d_{id}_v"), s.opt.v);
    }
    ck.push_u64("adam_t", adam_t);
    ck.push_u64("alive", alive);
}

/// The moves of a swap whose fates are drawn: `to[src] = Some(dst)` when
/// the discriminator `src` held before the swap arrives at `dst` (both
/// present, each slot at most once on either side). The parameter tensors
/// change hands along each cycle. A chain starts at a worker nothing
/// arrives at (its own transfer in was lost, its source crashed, or it is
/// no destination), which keeps the parameters it also sent: the one hop
/// that copies, into the receiving worker's own buffers. Every worker ends
/// with exactly the parameters a snapshot-and-install swap leaves.
pub(crate) fn relocate_discs(workers: &mut [Option<MdWorker>], mut to: Vec<Option<usize>>) {
    let mut overwritten = vec![false; to.len()];
    for &dst in to.iter().flatten() {
        assert!(!overwritten[dst], "two discriminators sent to slot {dst}");
        overwritten[dst] = true;
    }
    fn nets(workers: &mut [Option<MdWorker>], a: usize, b: usize) -> [&mut Sequential; 2] {
        let pair = workers
            .get_disjoint_mut([a, b])
            .expect("a move joins two slots");
        pair.map(|w| &mut w.as_mut().expect("a move joins present workers").disc.net)
    }
    // Chains, each from its far end: every hop a swap but the first, which
    // copies, so the start keeps its own.
    for start in 0..to.len() {
        if overwritten[start] || to[start].is_none() {
            continue;
        }
        let chain: Vec<usize> = std::iter::successors(Some(start), |&s| to[s]).collect();
        for hop in chain[1..].windows(2).rev() {
            let [a, b] = nets(workers, hop[0], hop[1]);
            a.swap_params(b);
        }
        let [a, b] = nets(workers, chain[0], chain[1]);
        b.copy_params_from(a);
        for s in chain {
            to[s] = None;
        }
    }
    // What is left are cycles: each rotates through its first member.
    for start in 0..to.len() {
        let mut next = to[start].take();
        while let Some(dst) = next.filter(|&d| d != start) {
            let [a, b] = nets(workers, start, dst);
            a.swap_params(b);
            next = to[dst].take();
        }
    }
}

/// Reads back what [`push_workers`] wrote: a worker the `alive` mask marks
/// dead is dropped here too, a live one missing any section is an error.
pub(crate) fn restore_workers(
    ck: &Checkpoint,
    workers: &mut [Option<MdWorker>],
) -> Result<(), TrainError> {
    let n = workers.len();
    let alive = ck.require_u64_len("alive", n).map_err(ckerr)?;
    let adam_t = ck.require_u64_len("adam_t", 1 + n).map_err(ckerr)?;
    for (i, slot) in workers.iter_mut().enumerate() {
        let id = i + 1;
        if alive[i] == 0 {
            *slot = None;
            continue;
        }
        let Some(w) = slot.as_mut() else {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has worker {id} alive but it already crashed here"
            )));
        };
        let disc = ck.require_len(&format!("disc_{id}"), w.disc_params_len());
        w.set_disc_params(disc.map_err(ckerr)?);
        let opt = AdamState {
            t: adam_t[id],
            m: ck
                .require(&format!("opt_d_{id}_m"))
                .map_err(ckerr)?
                .to_vec(),
            v: ck
                .require(&format!("opt_d_{id}_v"))
                .map_err(ckerr)?
                .to_vec(),
        };
        w.opt_d
            .import_state(&opt, &w.disc.net)
            .map_err(TrainError::Checkpoint)?;
    }
    Ok(())
}

impl MdWorker {
    /// Builds worker `id` with its own discriminator initialization.
    ///
    /// The paper notes architectures/initializations *could* differ per
    /// worker but uses identical architectures; we initialize each D_n
    /// independently (`Initialize θ_n for D_n`, Algorithm 1 line 2).
    pub fn new(
        id: usize,
        spec: &ArchSpec,
        shard: Dataset,
        hyper: GanHyper,
        rng: &mut Rng64,
    ) -> Self {
        let disc = spec.build_discriminator(rng);
        MdWorker {
            id,
            disc,
            opt_d: Adam::new(hyper.adam_d),
            key: rng.next_u64(),
            shard,
            hyper,
        }
    }

    /// Local shard size `m`.
    pub fn shard_size(&self) -> usize {
        self.shard.len()
    }

    /// Discriminator parameter count `|θ|`.
    pub fn disc_params_len(&self) -> usize {
        self.disc.num_params()
    }

    /// One global iteration's worker-side work (Algorithm 1 lines 4-10):
    /// `L` discriminator learning steps on `(X_r, X_d)`, then the error
    /// feedback `F_n = ∂B̃(X_g)/∂x_i`.
    pub fn process(
        &mut self,
        xd: &Tensor,
        xd_labels: &[usize],
        xg: &Tensor,
        xg_labels: &[usize],
    ) -> Tensor {
        self.process_observed(xd, xd_labels, xg, xg_labels, |_| {})
    }

    /// [`MdWorker::process`], showing `at_step` the discriminator each time
    /// a D step has left its gradient for the optimizer: the one moment a
    /// step gradient exists (the step releases it).
    fn process_observed(
        &mut self,
        xd: &Tensor,
        xd_labels: &[usize],
        xg: &Tensor,
        xg_labels: &[usize],
        mut at_step: impl FnMut(&Sequential),
    ) -> Tensor {
        let b = self.hyper.batch;
        let classes = self.disc.num_classes;
        let aux = self.hyper.aux_weight;

        // X(r) <- SAMPLES(B_n, b)
        let (x_real, y_real) = self.shard.sample(b, &mut self.sampling_stream());

        for _ in 0..self.hyper.disc_steps.max(1) {
            // Nobody reads ∂L/∂image of a training batch: one pass over
            // (X_r; X_d) that writes the parameter gradients over the last
            // step's, so no sweep brackets it.
            self.disc.learn_step(&x_real, &y_real, xd, xd_labels, aux);
            if self.hyper.clip_grad_norm > 0.0 {
                self.disc
                    .net
                    .clip_grad_norm_per_layer(self.hyper.clip_grad_norm);
            }
            at_step(&self.disc.net);
            self.opt_d.step(&mut self.disc.net);
        }

        // F_n <- ∂B̃(X_g)/∂x: backprop the generator objective through D_n
        // down to the *input images*. The worker does not train on X_g, so
        // no parameter gradient is computed or touched.
        let logits_g = self.disc.forward(xg, true);
        let (_, glogits) = gen_loss(&logits_g, xg_labels, classes, aux, self.hyper.gen_loss);
        self.disc.backward_input(&glogits)
    }

    /// One worker turn, as every runtime runs it: Algorithm 1 lines 4-10
    /// ([`process`](Self::process)), the worker's `attack` (honest workers
    /// pass through) and the feedback `codec`, all under one `DFeedback`
    /// span hung off `ctx` — the downlink that delivered the batches — and
    /// then the per-worker feedback tally. Returns what the uplink ships:
    /// the feedback, its wire bytes and the span's context, so the send is
    /// stamped the moment the worker finishes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn turn(
        &mut self,
        attack: &mut AttackState,
        (xd, xd_labels): &Batch,
        (xg, xg_labels): &Batch,
        codec: Codec,
        telemetry: &Recorder,
        ctx: TraceCtx,
        tick: u64,
    ) -> (Tensor, u64, TraceCtx) {
        let span = telemetry.span_at(Phase::DFeedback, Track::node(self.id), ctx, tick);
        let honest = self.process(xd, xd_labels, xg, xg_labels);
        let (feedback, bytes) = codec.transmit(attack.apply(self, honest, xg, xg_labels));
        let ctx = span.ctx();
        drop(span);
        telemetry.worker_feedback(self.id);
        (feedback, bytes, ctx)
    }

    /// The receive side of a swap, on every runtime: install the
    /// parameters that arrived, or — the source sent nothing or the
    /// transfer was lost — time out and keep the current discriminator.
    pub(crate) fn swap_in(&mut self, params: Option<&[f32]>, telemetry: &Recorder) {
        if let Some(params) = params {
            self.set_disc_params(params);
        }
        self.tally_swap_in(params.is_some(), telemetry);
    }

    /// What the receive side of a swap records: the install, or the
    /// timeout when nothing `arrived`.
    pub(crate) fn tally_swap_in(&self, arrived: bool, telemetry: &Recorder) {
        if arrived {
            telemetry.worker_swap_in(self.id);
        } else {
            telemetry.event(Event::Custom {
                name: "swap_timeout",
                value: self.id as f64,
            });
        }
    }

    /// This turn's shard-sampling stream.
    fn sampling_stream(&self) -> Rng64 {
        Rng64::keyed(self.key, self.id as u64, self.opt_d.steps())
    }

    /// Discriminator optimizer steps taken so far: the step counter an
    /// attacker's stream is keyed by.
    pub(crate) fn d_steps(&self) -> u64 {
        self.opt_d.steps()
    }

    /// Flat discriminator parameters (what a swap ships).
    pub fn disc_params(&self) -> Vec<f32> {
        self.disc.net.get_params_flat()
    }

    /// The feedback a *stale* discriminator snapshot would produce on
    /// `xg` — the pre-trained-mimicry free-rider strategy (§VII.3 /
    /// arXiv:2201.09967). The worker's live parameters are swapped out,
    /// the generator objective is backpropagated to the input images on
    /// the frozen snapshot, and the live parameters are restored; neither
    /// the discriminator nor its optimizer state moves.
    pub fn stale_feedback(&mut self, stale: &[f32], xg: &Tensor, xg_labels: &[usize]) -> Tensor {
        let live = self.disc.net.get_params_flat();
        self.disc.net.set_params_flat(stale);
        let logits = self.disc.forward(xg, true);
        let (_, glogits) = gen_loss(
            &logits,
            xg_labels,
            self.disc.num_classes,
            self.hyper.aux_weight,
            self.hyper.gen_loss,
        );
        let feedback = self.disc.backward_input(&glogits);
        self.disc.net.set_params_flat(&live);
        feedback
    }

    /// Installs received discriminator parameters (a swap's or a
    /// bootstrap's receive side, a checkpoint restore).
    ///
    /// Only the parameters move, not the Adam moments — the optimizer
    /// state stays with the worker (see DESIGN.md §2).
    pub fn set_disc_params(&mut self, params: &[f32]) {
        self.disc.net.set_params_flat(params);
    }

    /// Everything a checkpoint keeps of this worker.
    pub fn state(&self) -> WorkerState {
        WorkerState {
            disc: self.disc_params(),
            opt: self.opt_d.export_state(),
        }
    }

    /// The discriminator network (health scans read parameter norms).
    pub(crate) fn disc_net(&self) -> &md_nn::layers::Sequential {
        &self.disc.net
    }

    /// Scales the discriminator learning rate by `factor` (supervisor
    /// LR-drop after a rollback).
    pub fn scale_lr(&mut self, factor: f32) {
        let lr = self.opt_d.lr();
        self.opt_d.set_lr(lr * factor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_data::synthetic::mnist_like;
    use md_nn::gan::{disc_loss_fake, disc_loss_real};
    use md_nn::layer::Layer;

    fn worker() -> MdWorker {
        let shard = mnist_like(12, 64, 1, 0.08);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut rng = Rng64::seed_from_u64(2);
        MdWorker::new(
            1,
            &spec,
            shard,
            GanHyper {
                batch: 6,
                ..GanHyper::default()
            },
            &mut rng,
        )
    }

    fn fake_batch(b: usize, rng: &mut Rng64) -> (Tensor, Vec<usize>) {
        (
            Tensor::randn(&[b, 1, 12, 12], rng).clamp(-1.0, 1.0),
            (0..b).map(|i| i % 10).collect(),
        )
    }

    #[test]
    fn process_returns_image_shaped_feedback() {
        let mut w = worker();
        let mut rng = Rng64::seed_from_u64(3);
        let (xd, yd) = fake_batch(6, &mut rng);
        let (xg, yg) = fake_batch(6, &mut rng);
        let f = w.process(&xd, &yd, &xg, &yg);
        assert_eq!(f.shape(), &[6, 1, 12, 12]);
        assert!(f.data().iter().any(|&v| v != 0.0));
        assert!(f.all_finite());
    }

    #[test]
    fn process_trains_the_discriminator() {
        let mut w = worker();
        let before = w.disc_params();
        let mut rng = Rng64::seed_from_u64(4);
        let (xd, yd) = fake_batch(6, &mut rng);
        let (xg, yg) = fake_batch(6, &mut rng);
        w.process(&xd, &yd, &xg, &yg);
        assert_ne!(
            before,
            w.disc_params(),
            "D_n must move during a global iteration"
        );
    }

    #[test]
    fn feedback_leaves_the_step_gradient_as_the_d_step_left_it() {
        let (mut w, mut reference) = (worker(), FullBackwardWorker::new(worker()));
        let mut rng = Rng64::seed_from_u64(5);
        let (xd, yd) = fake_batch(6, &mut rng);
        let (xg, yg) = fake_batch(6, &mut rng);
        let mut step_grads = Vec::new();
        w.process_observed(&xd, &yd, &xg, &yg, |net| {
            step_grads.push(bits(&net.get_grads_flat()));
        });
        reference.process(&xd, &yd, &xg, &yg);
        // The optimizer consumed the D step's gradient...
        assert_eq!(step_grads, reference.step_grads_bits());
        assert!(reference.step_grads[0].iter().any(|&g| g != 0.0));
        // ... and released it: the feedback pass of `process` drew no
        // gradient buffer, and neither does one more feedback pass.
        assert!(w.disc.net.grads().is_empty(), "D_n holds a gradient");
        let live = w.disc_params();
        w.stale_feedback(&live, &xg, &yg);
        assert!(w.disc.net.grads().is_empty(), "D_n holds a gradient");
    }

    #[test]
    fn swap_roundtrip_moves_parameters() {
        let mut a = worker();
        let shard = mnist_like(12, 64, 9, 0.08);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut rng = Rng64::seed_from_u64(7);
        let mut b = MdWorker::new(
            2,
            &spec,
            shard,
            GanHyper {
                batch: 6,
                ..GanHyper::default()
            },
            &mut rng,
        );
        let pa = a.disc_params();
        let pb = b.disc_params();
        assert_ne!(pa, pb);
        // Swap.
        a.set_disc_params(&pb);
        b.set_disc_params(&pa);
        assert_eq!(a.disc_params(), pb);
        assert_eq!(b.disc_params(), pa);
    }

    #[test]
    fn stale_feedback_uses_snapshot_and_restores_live_params() {
        let mut w = worker();
        let snapshot = w.disc_params();
        let mut rng = Rng64::seed_from_u64(6);
        let (xd, yd) = fake_batch(6, &mut rng);
        let (xg, yg) = fake_batch(6, &mut rng);
        // Live D moves off the snapshot, on a gradient read at the step.
        let mut step_grads = Vec::new();
        w.process_observed(&xd, &yd, &xg, &yg, |net| {
            step_grads = net.get_grads_flat();
        });
        assert!(step_grads.iter().any(|&g| g != 0.0));
        let live = w.disc_params();
        assert_ne!(live, snapshot);
        let f_stale = w.stale_feedback(&snapshot, &xg, &yg);
        assert_eq!(w.disc_params(), live, "live parameters must be restored");
        assert_eq!(f_stale.shape(), &[6, 1, 12, 12]);
        assert!(f_stale.all_finite());
        assert!(w.disc.net.grads().is_empty(), "D_n holds a gradient");
        // The frozen snapshot answers differently than the live model.
        let f_live = w.stale_feedback(&live, &xg, &yg);
        assert_ne!(f_stale.data(), f_live.data());
        assert!(w.disc.net.grads().is_empty(), "D_n holds a gradient");
    }

    /// The one naive reference: the worker written with nothing but
    /// `zero_grad` / `forward` / `backward`. `X_r` and `X_d` go through
    /// `D_n` one after the other, every pass is a full backward, and the
    /// feedback pass is bracketed by two sweeps that throw its parameter
    /// gradients away. Every shortcut `MdWorker::process` takes (demand-
    /// driven backward, the stacked write-once D step) is checked against
    /// this, bit for bit.
    struct FullBackwardWorker {
        inner: MdWorker,
        /// The gradients the D steps of the last `process` handed to Adam
        /// (after clipping), in step order.
        step_grads: Vec<Vec<f32>>,
    }

    impl FullBackwardWorker {
        fn new(inner: MdWorker) -> Self {
            FullBackwardWorker {
                inner,
                step_grads: Vec::new(),
            }
        }

        fn process(&mut self, xd: &Tensor, yd: &[usize], xg: &Tensor, yg: &[usize]) -> Tensor {
            let w = &mut self.inner;
            let (classes, aux) = (w.disc.num_classes, w.hyper.aux_weight);
            let (x_real, y_real) = w.shard.sample(w.hyper.batch, &mut w.sampling_stream());
            self.step_grads.clear();
            for _ in 0..w.hyper.disc_steps.max(1) {
                w.disc.net.zero_grad();
                let logits_r = w.disc.forward(&x_real, true);
                w.disc
                    .backward(&disc_loss_real(&logits_r, &y_real, classes, aux).1);
                let logits_f = w.disc.forward(xd, true);
                w.disc
                    .backward(&disc_loss_fake(&logits_f, yd, classes, aux).1);
                if w.hyper.clip_grad_norm > 0.0 {
                    w.disc.net.clip_grad_norm_per_layer(w.hyper.clip_grad_norm);
                }
                self.step_grads.push(w.disc.net.get_grads_flat());
                w.opt_d.step(&mut w.disc.net);
            }
            self.feedback(xg, yg)
        }

        fn feedback(&mut self, xg: &Tensor, yg: &[usize]) -> Tensor {
            let w = &mut self.inner;
            let logits = w.disc.forward(xg, true);
            let (_, glogits) = gen_loss(
                &logits,
                yg,
                w.disc.num_classes,
                w.hyper.aux_weight,
                w.hyper.gen_loss,
            );
            w.disc.net.zero_grad();
            let feedback = w.disc.backward(&glogits);
            w.disc.net.zero_grad();
            feedback
        }

        fn stale_feedback(&mut self, stale: &[f32], xg: &Tensor, yg: &[usize]) -> Tensor {
            let live = self.inner.disc_params();
            self.inner.set_disc_params(stale);
            let feedback = self.feedback(xg, yg);
            self.inner.set_disc_params(&live);
            feedback
        }

        fn step_grads_bits(&self) -> Vec<Vec<u32>> {
            self.step_grads.iter().map(|g| bits(g)).collect()
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn worker_matches_the_naive_reference_bit_for_bit() {
        let hyper = GanHyper {
            batch: 6,
            disc_steps: 2,
            clip_grad_norm: 0.5,
            ..GanHyper::default()
        };
        for spec in [
            ArchSpec::mlp_mnist_scaled(12),
            ArchSpec::cnn_mnist_scaled(16),
        ] {
            // A 3-image shard samples short: |X_r| = 3 against |X_d| = 6,
            // the one case the D step cannot stack.
            for shard_len in [64, 3] {
                let build = || {
                    let shard = mnist_like(spec.img, shard_len, 1, 0.08);
                    MdWorker::new(1, &spec, shard, hyper, &mut Rng64::seed_from_u64(2))
                };
                let (mut w, mut reference) = (build(), FullBackwardWorker::new(build()));
                let snapshot = w.disc_params();
                let mut rng = Rng64::seed_from_u64(3);
                let mut batch = || {
                    (
                        Tensor::randn(&[6, 1, spec.img, spec.img], &mut rng).clamp(-1.0, 1.0),
                        (0..6).map(|i| i % 10).collect::<Vec<usize>>(),
                    )
                };
                for iter in 0..5 {
                    let at = format!("iteration {iter}, shard of {shard_len}");
                    let ((xd, yd), (xg, yg)) = (batch(), batch());
                    let mut step_grads = Vec::new();
                    let f = w.process_observed(&xd, &yd, &xg, &yg, |net| {
                        step_grads.push(bits(&net.get_grads_flat()));
                    });
                    let f_ref = reference.process(&xd, &yd, &xg, &yg);
                    assert_eq!(bits(f.data()), bits(f_ref.data()), "F_n at {at}");
                    assert_eq!(
                        bits(&w.disc_params()),
                        bits(&reference.inner.disc_params()),
                        "θ_n after {at}"
                    );
                    assert_eq!(
                        step_grads,
                        reference.step_grads_bits(),
                        "step gradients at {at}"
                    );
                    assert!(w.disc.net.grads().is_empty(), "gradient held after {at}");

                    let s = w.stale_feedback(&snapshot, &xg, &yg);
                    let s_ref = reference.stale_feedback(&snapshot, &xg, &yg);
                    assert_eq!(bits(s.data()), bits(s_ref.data()), "stale F_n at {at}");
                    assert_eq!(bits(&w.disc_params()), bits(&reference.inner.disc_params()));
                    assert!(w.disc.net.grads().is_empty(), "gradient held after {at}");
                }
            }
        }
    }

    #[test]
    fn honest_turn_is_process_plus_the_tally() {
        let (mut w, mut reference) = (worker(), worker());
        let mut rng = Rng64::seed_from_u64(8);
        let (xd, xg) = (fake_batch(6, &mut rng), fake_batch(6, &mut rng));
        let rec = Recorder::enabled();
        let mut honest = AttackState::new(crate::byzantine::Attack::None, 1, 0, None);
        let (f, bytes, _) = w.turn(&mut honest, &xd, &xg, Codec::None, &rec, TraceCtx::NONE, 0);
        let f_ref = reference.process(&xd.0, &xd.1, &xg.0, &xg.1);
        assert_eq!(bits(f.data()), bits(f_ref.data()));
        assert_eq!(bytes, 4 * f.len() as u64);
        assert_eq!(rec.worker_stats()[1].feedbacks, 1);
    }

    #[test]
    fn swap_in_installs_or_times_out() {
        let (mut w, rec) = (worker(), Recorder::enabled());
        let kept = w.disc_params();
        w.swap_in(None, &rec);
        assert_eq!(w.disc_params(), kept, "a timed-out swap keeps D_n");
        let arrived = vec![0.5; kept.len()];
        w.swap_in(Some(&arrived), &rec);
        assert_eq!(w.disc_params(), arrived);
        assert_eq!(rec.worker_stats()[1].swaps_in, 1);
        let events: Vec<Event> = rec.events().into_iter().map(|e| e.event).collect();
        let timeout = Event::Custom {
            name: "swap_timeout",
            value: 1.0,
        };
        assert_eq!(events, vec![timeout]);
    }

    #[test]
    fn process_is_deterministic() {
        let run = || {
            let mut w = worker();
            let mut rng = Rng64::seed_from_u64(11);
            let (xd, yd) = fake_batch(6, &mut rng);
            let (xg, yg) = fake_batch(6, &mut rng);
            w.process(&xd, &yd, &xg, &yg).into_data()
        };
        assert_eq!(run(), run());
    }
}
