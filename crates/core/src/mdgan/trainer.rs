//! The sequential (deterministic) MD-GAN runtime.
//!
//! [`MdGan`] is a `Coordinator` — Algorithm 1's server side, with the
//! exact interaction order of the paper's emulation — over an
//! `InProcess` cluster: the workers live in this process, a downlink is a
//! borrow of the generated batches, and the workers of one iteration run
//! side by side on the tensor pool. Traffic is charged per message exactly
//! as Table III specifies, through one [`Wire`] — reliable by default,
//! through the seeded fault layer when the config is robust.

use crate::arch::ArchSpec;
use crate::byzantine::{push_echoes, restore_echoes, AttackState};
use crate::checkpoint::Checkpoint;
use crate::compression::Codec;
use crate::config::MdGanConfig;
use crate::error::TrainError;
use crate::mdgan::round::{Call, Cluster, Coordinator, Order};
use crate::mdgan::worker::{relocate_discs, MdWorker, WorkerState};
use md_data::Dataset;
use md_nn::gan::Generator;
use md_nn::layer::Layer;
use md_nn::param::param_bytes;
use md_simnet::{FaultState, Membership, TrafficReport, TrafficStats, Wire};
use md_telemetry::{Recorder, TraceCtx};
use md_tensor::parallel::{parallel_for_each_mut, PAR_THRESHOLD};
use md_tensor::Tensor;
use std::sync::Arc;

/// One participant's share of a synchronous iteration, between the
/// server's SPLIT and its `Δw` merge. The dispatch loop fills it in while
/// it sends the downlinks; the worker's turn then touches only this
/// worker's own state, so the turns of one iteration run side by side on
/// the tensor pool and produce the same bits in any order.
struct WorkerTurn<'a> {
    order: &'a Order,
    worker: &'a mut MdWorker,
    attack: &'a mut AttackState,
    /// The downlink `Recv` the compute span hangs off.
    ctx: TraceCtx,
    /// What the server receives, once the uplink delivered it.
    reply: Option<Tensor>,
}

/// The workers of a runtime that keeps them in this process — the
/// sequential [`MdGan`]'s [`Cluster`], and the population
/// [`AsyncMdGan`](crate::mdgan::asynchronous::AsyncMdGan) schedules.
pub(crate) struct InProcess {
    /// `None` marks a departed worker (its shard is gone with it).
    pub(crate) workers: Vec<Option<MdWorker>>,
    /// Stateful per-worker feedback manipulation (§VII.3): per-worker RNG
    /// streams, echo caches, stale discriminator snapshots.
    pub(crate) attacks: Vec<AttackState>,
    /// Instantiated fault plan; present iff the config is robust.
    pub(crate) faults: Option<FaultState>,
}

/// The link every message of `call` travels: reliable, or through `faults`.
pub(crate) fn wire<'a>(faults: &'a Option<FaultState>, call: &Call<'a>) -> Wire<'a> {
    Wire {
        stats: call.stats,
        faults: faults.as_ref(),
        retries: call.retries,
        telemetry: call.telemetry,
    }
}

impl InProcess {
    /// Places `workers` and their `attacks`; a robust `cfg` instantiates
    /// its fault plan over the server and every worker slot.
    pub fn new(cfg: &MdGanConfig, workers: Vec<MdWorker>, attacks: Vec<AttackState>) -> Self {
        let nodes = 1 + workers.len();
        InProcess {
            workers: workers.into_iter().map(Some).collect(),
            attacks,
            faults: cfg
                .is_robust()
                .then(|| FaultState::new(cfg.fault.clone(), nodes)),
        }
    }

    /// Every present worker's checkpoint state, at an iteration boundary.
    pub(crate) fn worker_states(&self) -> Vec<Option<WorkerState>> {
        let state = |w: &Option<MdWorker>| w.as_ref().map(MdWorker::state);
        self.workers.iter().map(state).collect()
    }

    /// Every present worker's recorded echo (see
    /// [`push_echoes`](crate::byzantine::push_echoes)), by slot.
    pub(crate) fn echoes(&self) -> impl Iterator<Item = Option<&Tensor>> {
        let present = self.workers.iter().map(Option::is_some);
        present
            .zip(&self.attacks)
            .map(|(p, a)| a.echo().filter(|_| p))
    }
}

impl Cluster for InProcess {
    fn present(&self, slot: usize) -> bool {
        self.workers[slot].is_some()
    }

    fn crash(&mut self, slot: usize) {
        self.workers[slot] = None;
    }

    fn retire(&mut self, slot: usize) {
        self.workers[slot] = None;
    }

    /// Control-plane reliable: never dropped, even on a lossy data network.
    fn bootstrap(&mut self, call: &Call, src: usize, dst: usize) -> u64 {
        let (tick, wire) = (call.iter as u64, wire(&self.faults, call).reliable());
        let params = self.workers[src]
            .as_ref()
            .expect("bootstrap source present")
            .disc_params();
        wire.carry(src + 1, 0, param_bytes(params.len()), tick, call.ctx);
        let blob = crate::mdgan::bootstrap_blob(tick, &params);
        let blob_len = blob.len() as u64;
        wire.carry(0, dst + 1, blob_len, tick, call.ctx);
        let disc = crate::mdgan::bootstrap_disc(&blob).expect("fresh blob decodes");
        if let Some(w) = self.workers[dst].as_mut() {
            w.set_disc_params(&disc);
        }
        blob_len
    }

    fn exchange(
        &mut self,
        call: &Call,
        orders: &[Order],
        batches: &[(Tensor, Vec<usize>)],
    ) -> Vec<(usize, usize, Tensor)> {
        let (tick, wire) = (call.iter as u64, wire(&self.faults, call));
        // Disjoint `&mut` handles on every present worker and its attack
        // state, for the dispatch loop to `take()` in order.
        let mut slots: Vec<Option<(&mut MdWorker, &mut AttackState)>> = self
            .workers
            .iter_mut()
            .zip(&mut self.attacks)
            .map(|(w, a)| w.as_mut().map(|w| (w, a)))
            .collect();
        // Dispatch, in order: the downlinks. A crashed worker the robust
        // server still addresses received its batches (the bytes moved)
        // but computes and answers nothing.
        let mut turns: Vec<WorkerTurn> = Vec::with_capacity(orders.len());
        for order in orders {
            let down = wire.carry(0, order.slot + 1, order.bytes, tick, call.ctx);
            if let (Some(ctx), Some((worker, attack))) = (down, slots[order.slot].take()) {
                turns.push(WorkerTurn {
                    order,
                    worker,
                    attack,
                    ctx,
                    reply: None,
                });
            }
        }
        // Compute and uplink, side by side. The uplink is stamped the moment
        // the worker finishes, so the latest server-side arrival names the
        // worker that really gated the update. Every link has one sender
        // and fates are drawn per link, so the draws do not depend on the
        // order across workers.
        parallel_for_each_mut(&mut turns, PAR_THRESHOLD, |_, t| {
            let (o, codec, rec) = (t.order, call.feedback_codec, call.telemetry);
            let (xd, xg) = (&batches[o.d_id], &batches[o.g_id]);
            let (feedback, bytes, ctx) = t.worker.turn(t.attack, xd, xg, codec, rec, t.ctx, tick);
            if wire.carry(o.slot + 1, 0, bytes, tick, ctx).is_some() {
                t.reply = Some(feedback);
            }
        });
        // Collect, in order.
        let mut heard = Vec::with_capacity(turns.len());
        for WorkerTurn { order, reply, .. } in turns {
            if let Some(feedback) = reply {
                heard.push((order.slot, order.g_id, feedback));
            }
        }
        heard
    }

    /// The transfers' fates and the receive sides' tallies run in pair
    /// order; then the parameter tensors move, not a copy of them
    /// ([`relocate_discs`]).
    fn swap(&mut self, call: &Call, pairs: &[(usize, usize)]) {
        let (tick, wire) = (call.iter as u64, wire(&self.faults, call));
        let mut to = vec![None; self.workers.len()];
        for &(src, dst) in pairs {
            // A crashed source sends nothing.
            let sent = self.workers[src].as_ref().map(MdWorker::disc_params_len);
            let arrived = sent.is_some_and(|len| {
                let bytes = param_bytes(len);
                wire.carry(src + 1, dst + 1, bytes, tick, call.ctx)
                    .is_some()
            });
            if let Some(w) = self.workers[dst].as_ref() {
                w.tally_swap_in(arrived, call.telemetry);
                if arrived {
                    assert!(to[src].replace(dst).is_none(), "slot {src} sent twice");
                }
            }
        }
        relocate_discs(&mut self.workers, to);
    }
}

/// The MD-GAN system (sequential runtime).
pub struct MdGan {
    coord: Coordinator,
    cluster: InProcess,
}

impl MdGan {
    /// Builds the full system over pre-sharded data. Byzantine workers
    /// (§VII.3) and the server-side aggregator come from `cfg.attacks` and
    /// `cfg.aggregation`.
    pub fn new(spec: &ArchSpec, shards: Vec<Dataset>, cfg: MdGanConfig) -> Self {
        let stats = Arc::new(TrafficStats::new(1 + cfg.total_workers()));
        let telemetry = Arc::new(Recorder::disabled());
        let (coord, workers, attacks) =
            Coordinator::build(spec, shards, cfg.clone(), stats, telemetry);
        let cluster = InProcess::new(&cfg, workers, attacks);
        MdGan { coord, cluster }
    }

    /// Attaches a telemetry recorder: phases (`gen_forward`, `d_feedback`,
    /// `g_update`, `swap`, `eval`), counters and per-worker tallies are
    /// recorded into it. Recording is off by default.
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.coord.telemetry = recorder;
        self
    }

    /// The attached telemetry recorder (a disabled one when none was set).
    pub fn telemetry(&self) -> &Arc<Recorder> {
        &self.coord.telemetry
    }

    /// Enables lossy message compression (§VII.2): `batch` is applied to
    /// the generated batches the server ships down, `feedback` to the
    /// error feedbacks the workers ship up. Workers and server train on
    /// the *decompressed* approximations, and the traffic accounting
    /// charges the compressed wire sizes.
    pub fn with_codecs(mut self, batch: Codec, feedback: Codec) -> Self {
        self.coord.set_codecs(batch, feedback);
        self
    }

    /// Hosts only `m` discriminators across the `N` workers (§VII.4,
    /// "fewer discriminators than workers"): each global iteration only
    /// the current hosts train and send feedback; every swap relocates
    /// the discriminators to a fresh random subset of the alive workers,
    /// so over time the whole distributed dataset is leveraged.
    ///
    /// # Panics
    /// Panics if `m` is 0 or exceeds the worker count.
    pub fn with_disc_count(mut self, m: usize) -> Self {
        self.coord.set_disc_count(m);
        self
    }

    /// The resolved `k` (number of generated batches per iteration).
    pub fn k(&self) -> usize {
        self.coord.k()
    }

    /// Global iterations between swaps (`⌊m·E/b⌋`).
    pub fn swap_interval(&self) -> usize {
        self.coord.swap_interval()
    }

    /// Completed global iterations.
    pub fn iterations(&self) -> usize {
        self.coord.iterations()
    }

    /// Completed swap rounds.
    pub fn swaps(&self) -> usize {
        self.coord.swaps()
    }

    /// Worker ids (1-based) currently alive: the worker exists *and* the
    /// membership view admits it (planned joiners are built up front but
    /// stay `Pending` until their join fires).
    pub fn alive_workers(&self) -> Vec<usize> {
        self.coord.alive_workers(&self.cluster)
    }

    /// The current membership view (epoch-numbered).
    pub fn membership(&self) -> &Membership {
        self.coord.membership()
    }

    /// The single server-side generator.
    pub fn generator_mut(&mut self) -> &mut Generator {
        &mut self.coord.server.gen
    }

    /// Flat generator parameters.
    pub fn gen_params(&self) -> Vec<f32> {
        self.coord.server.gen_params()
    }

    /// Traffic snapshot.
    pub fn traffic(&self) -> TrafficReport {
        self.coord.stats().report()
    }

    /// Captures a full training checkpoint (format v2): generator and
    /// alive discriminators *plus* Adam moments, the alive mask, counters,
    /// traffic totals and the echo attackers' recorded feedbacks —
    /// everything a bit-identical resume needs. Every random draw is keyed
    /// by a counter among them, so no stream position is saved. The
    /// threaded runtime writes and reads the same layout, so either resumes
    /// the other's files.
    ///
    /// Robust-mode state (failure detector, per-link fault RNG) is *not*
    /// captured; resuming a robust run restarts the detector cold (see
    /// DESIGN.md §10).
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = self.coord.checkpoint(self.cluster.worker_states());
        push_echoes(&mut ck, self.cluster.echoes());
        ck
    }

    /// Restores a checkpoint taken on an identically configured system; a
    /// resumed run then replays bit-for-bit. Missing or length-mismatched
    /// sections — a parameter-only file included — are errors.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        self.coord.restore(ck, &mut self.cluster.workers)?;
        restore_echoes(ck, &mut self.cluster.attacks)
    }

    /// One global iteration of Algorithm 1. In robust mode (a fault plan,
    /// the defense, or `cfg.robust.enabled`) the same round runs without
    /// consulting the crash oracle.
    pub fn step(&mut self) {
        self.coord.round(&mut self.cluster);
    }
}

impl crate::supervisor::Recoverable for MdGan {
    fn iteration(&self) -> u64 {
        self.iterations() as u64
    }

    fn capture(&self) -> Checkpoint {
        self.checkpoint()
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        MdGan::restore(self, ck)
    }

    /// MD-GAN's server never sees a scalar loss (workers ship gradients,
    /// not losses), so step health rides on the parameter scans alone.
    fn step_once(&mut self) -> Vec<f32> {
        self.step();
        Vec::new()
    }

    fn health_nets(&self) -> Vec<&md_nn::layers::Sequential> {
        let mut nets = vec![&self.coord.server.gen.net];
        nets.extend(self.cluster.workers.iter().flatten().map(|w| w.disc_net()));
        nets
    }

    fn scale_lr(&mut self, factor: f32) {
        let lr = self.coord.server.gen_lr();
        self.coord.server.set_gen_lr(lr * factor);
        for w in self.cluster.workers.iter_mut().flatten() {
            w.scale_lr(factor);
        }
    }

    fn scored_generator(&mut self) -> &mut Generator {
        self.generator_mut()
    }

    /// Corrupts one generator weight. The poison is outside the
    /// checkpointed state's causal past: replaying the same iterations
    /// from the last checkpoint without re-poisoning stays healthy.
    fn poison(&mut self) {
        self.coord.server.gen.net.params_mut()[0].data_mut()[0] = f32::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::{Aggregation, Attack};
    use crate::config::{GanHyper, KPolicy, SwapPolicy};
    use crate::mdgan::round::swap_permutation;
    use md_data::synthetic::mnist_like;
    use md_simnet::{
        ChurnEvent, ChurnKind, ChurnPlan, CrashSchedule, FaultPlan, LinkClass, MemberStatus,
    };
    use md_telemetry::{Event, Phase};
    use md_tensor::rng::Rng64;

    fn build(workers: usize, k: KPolicy, swap: SwapPolicy, crash: CrashSchedule) -> MdGan {
        build_with(workers, k, swap, crash, |_| {})
    }

    /// As [`build`], with `edit` applied to the config first.
    fn build_with(
        workers: usize,
        k: KPolicy,
        swap: SwapPolicy,
        crash: CrashSchedule,
        edit: impl FnOnce(&mut MdGanConfig),
    ) -> MdGan {
        let data = mnist_like(12, workers * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(workers, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut cfg = MdGanConfig {
            workers,
            k,
            epochs_per_swap: 1.0,
            swap,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            crash,
            ..MdGanConfig::default()
        };
        edit(&mut cfg);
        MdGan::new(&spec, shards, cfg)
    }

    fn disc(md: &MdGan, slot: usize) -> Vec<f32> {
        md.cluster.workers[slot].as_ref().unwrap().disc_params()
    }

    #[test]
    fn step_moves_the_generator() {
        let mut md = build(
            4,
            KPolicy::LogN,
            SwapPolicy::Derangement,
            CrashSchedule::none(),
        );
        assert_eq!(md.k(), 2);
        let before = md.gen_params();
        md.step();
        assert_ne!(before, md.gen_params());
        assert_eq!(md.iterations(), 1);
    }

    #[test]
    fn traffic_per_iteration_matches_table_iii() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        md.step();
        let r = md.traffic();
        let b = 4u64;
        let d = (12 * 12) as u64;
        // C→W total: 2 b d N floats.
        assert_eq!(r.bytes(LinkClass::ServerToWorker), 2 * b * d * 3 * 4);
        // W→C total: b d N floats.
        assert_eq!(r.bytes(LinkClass::WorkerToServer), b * d * 3 * 4);
        assert_eq!(r.bytes(LinkClass::WorkerToWorker), 0);
    }

    #[test]
    fn swap_fires_at_interval_and_charges_theta() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Ring, CrashSchedule::none());
        // m = 32, b = 4, E = 1 -> swap every 8 iterations.
        assert_eq!(md.swap_interval(), 8);
        for _ in 0..7 {
            md.step();
        }
        assert_eq!(md.swaps(), 0);
        assert_eq!(md.traffic().bytes(LinkClass::WorkerToWorker), 0);
        md.step();
        assert_eq!(md.swaps(), 1);
        let theta = disc(&md, 0).len() as u64;
        assert_eq!(md.traffic().bytes(LinkClass::WorkerToWorker), 3 * theta * 4);
    }

    #[test]
    fn ring_swap_rotates_discriminators() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Ring, CrashSchedule::none());
        let before: Vec<Vec<f32>> = (0..3).map(|i| disc(&md, i)).collect();
        // A swap with no training in between: the cluster's own transfer,
        // over the pairs the coordinator would hand it.
        let perm = swap_permutation(SwapPolicy::Ring, 3, &mut Rng64::seed_from_u64(1)).unwrap();
        assert_eq!(perm, vec![1, 2, 0]);
        let pairs: Vec<(usize, usize)> = perm.iter().copied().enumerate().collect();
        let rec = Recorder::disabled();
        let call = Call {
            iter: 0,
            ctx: TraceCtx::NONE,
            stats: md.coord.stats(),
            telemetry: &rec,
            retries: 0,
            feedback_codec: Codec::None,
        };
        md.cluster.swap(&call, &pairs);
        assert_eq!(disc(&md, 1), before[0]);
        assert_eq!(disc(&md, 2), before[1]);
        assert_eq!(disc(&md, 0), before[2]);
        let theta = before[0].len() as u64;
        assert_eq!(md.traffic().bytes(LinkClass::WorkerToWorker), 3 * theta * 4);
    }

    #[test]
    fn crashes_remove_workers_and_their_traffic() {
        let crash = CrashSchedule::new(vec![(2, 1), (4, 2)]);
        let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, crash);
        md.step(); // iter 0: all 3 alive
        md.step(); // iter 1: all 3 alive
        assert_eq!(md.alive_workers().len(), 3);
        md.step(); // iter 2: worker 1 dead
        assert_eq!(md.alive_workers(), vec![2, 3]);
        md.step(); // iter 3
        md.step(); // iter 4: worker 2 dead
        assert_eq!(md.alive_workers(), vec![3]);
        // Still training with one worker.
        let before = md.gen_params();
        md.step();
        assert_ne!(before, md.gen_params());
    }

    #[test]
    fn all_crashed_is_survivable() {
        let crash = CrashSchedule::new(vec![(1, 1), (1, 2)]);
        let mut md = build(2, KPolicy::One, SwapPolicy::Disabled, crash);
        md.step();
        let before = md.gen_params();
        md.step(); // everyone dead: generator frozen, no panic
        assert_eq!(before, md.gen_params());
        assert!(md.alive_workers().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut md = build(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
            );
            for _ in 0..10 {
                md.step();
            }
            md.gen_params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn identity_codecs_do_not_change_training_or_traffic() {
        let mk = || build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        let mut plain = mk();
        let mut coded = mk().with_codecs(
            crate::compression::Codec::None,
            crate::compression::Codec::None,
        );
        for _ in 0..4 {
            plain.step();
            coded.step();
        }
        assert_eq!(plain.gen_params(), coded.gen_params());
        assert_eq!(plain.traffic().class_bytes, coded.traffic().class_bytes);
    }

    #[test]
    fn lossy_codecs_shrink_traffic_and_stay_finite() {
        use crate::compression::Codec;
        let mut plain = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        let mut coded = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none())
            .with_codecs(Codec::Quantize8, Codec::TopKQuantize8 { frac: 0.25 });
        for _ in 0..4 {
            plain.step();
            coded.step();
        }
        let p = plain.traffic();
        let c = coded.traffic();
        assert!(
            c.bytes(LinkClass::ServerToWorker) * 3 < p.bytes(LinkClass::ServerToWorker),
            "batches should compress ~4x: {} vs {}",
            c.bytes(LinkClass::ServerToWorker),
            p.bytes(LinkClass::ServerToWorker)
        );
        assert!(c.bytes(LinkClass::WorkerToServer) * 2 < p.bytes(LinkClass::WorkerToServer));
        assert!(coded.gen_params().iter().all(|v| v.is_finite()));
        // Lossy training diverges numerically from the exact run.
        assert_ne!(plain.gen_params(), coded.gen_params());
    }

    #[test]
    fn sign_flip_attack_changes_the_update() {
        let honest = {
            let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
            md.step();
            md.gen_params()
        };
        let attacked = {
            let mut md = build_with(
                3,
                KPolicy::One,
                SwapPolicy::Disabled,
                CrashSchedule::none(),
                |c| c.attacks = vec![Attack::SignFlip { scale: 1.0 }],
            );
            md.step();
            md.gen_params()
        };
        assert_ne!(honest, attacked);
    }

    #[test]
    fn median_aggregation_resists_an_inflater() {
        // One worker inflates its feedback by 1000x; with k=1 all three
        // workers share a batch, so the coordinate median ignores it.
        let run = |attacks: Vec<Attack>, agg: Aggregation| {
            let mut md = build_with(
                3,
                KPolicy::One,
                SwapPolicy::Disabled,
                CrashSchedule::none(),
                |c| (c.attacks, c.aggregation) = (attacks, agg),
            );
            md.step();
            md.gen_params()
        };
        // Compare update *directions*: a sign-flipped, inflated feedback
        // dominates (and reverses) the mean's update, while the coordinate
        // median's update keeps pointing the honest way.
        let p0 = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none()).gen_params();
        let delta = |p1: &[f32]| -> Vec<f32> { p1.iter().zip(&p0).map(|(a, b)| a - b).collect() };
        let cos = |a: &[f32], b: &[f32]| {
            let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb)
        };
        let evil = vec![
            Attack::SignFlip { scale: 1000.0 },
            Attack::None,
            Attack::None,
        ];
        let honest_med = delta(&run(vec![Attack::None; 3], Aggregation::CoordinateMedian));
        let honest_mean = delta(&run(vec![Attack::None; 3], Aggregation::Mean));
        let evil_med = delta(&run(evil.clone(), Aggregation::CoordinateMedian));
        let evil_mean = delta(&run(evil, Aggregation::Mean));
        // Both attacked runs are compared against the honest *mean* update
        // (the ground truth the server wants).
        let c_med = cos(&honest_mean, &evil_med);
        let c_mean = cos(&honest_mean, &evil_mean);
        let _ = honest_med;
        // Measured at this scale: c_med ≈ +0.22, c_mean ≈ -0.39 — the mean's
        // direction is *reversed* by the attacker, the median's is not.
        assert!(
            c_mean < 0.0,
            "attacked mean should anti-correlate, cos {c_mean}"
        );
        assert!(
            c_med > 0.0,
            "attacked median should stay honest-aligned, cos {c_med}"
        );
    }

    #[test]
    fn fewer_discriminators_than_workers() {
        let mut md = build(
            4,
            KPolicy::One,
            SwapPolicy::Derangement,
            CrashSchedule::none(),
        )
        .with_disc_count(2);
        for _ in 0..md.swap_interval() * 2 {
            md.step();
        }
        // Only 2 workers feed back per iteration.
        let r = md.traffic();
        let b = 4u64;
        let d = (12 * 12) as u64;
        let iters = md.iterations() as u64;
        assert_eq!(r.bytes(LinkClass::WorkerToServer), 2 * b * d * 4 * iters);
        // Relocation swaps happened (possibly zero-cost when hosts keep
        // their discriminator, but the swap counter advanced).
        assert_eq!(md.swaps(), 2);
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        for _ in 0..3 {
            md.step();
        }
        let ck = md.checkpoint();
        assert_eq!(ck.iteration, 3);
        for name in ["generator", "disc_1", "disc_2", "disc_3"] {
            assert!(ck.get(name).is_some(), "missing {name}");
        }
        for name in ["counters", "alive", "adam_t", "traffic"] {
            assert!(ck.get_u64(name).is_some(), "missing {name}");
        }
        assert!(ck.section_names().all(|n| !n.starts_with("rng")));
        let snapshot = md.gen_params();
        for _ in 0..3 {
            md.step();
        }
        assert_ne!(md.gen_params(), snapshot);
        md.restore(&ck).unwrap();
        assert_eq!(md.gen_params(), snapshot);
        assert_eq!(md.iterations(), 3);
        // Serialization roundtrip too.
        let parsed = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(parsed, ck);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        for attack in crate::byzantine::EVERY_ATTACK {
            assert_resume_is_bit_identical(attack);
        }
    }

    /// Resume ≡ uninterrupted with worker 1 running `attack`: 9 iterations
    /// (crossing the swap at 8) against 5, a checkpoint through the wire
    /// format, a fresh system restoring it and the remaining 4.
    fn assert_resume_is_bit_identical(attack: Attack) {
        let mk = || {
            build_with(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
                |c| c.attacks = vec![attack],
            )
        };
        let mut full = mk();
        for _ in 0..9 {
            full.step();
        }
        let mut first = mk();
        for _ in 0..5 {
            first.step();
        }
        let ck = Checkpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
        drop(first);
        assert!(
            ck.section_names().all(|n| !n.starts_with("rng")),
            "{attack:?}: a stream position was saved"
        );
        let mut resumed = mk();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.iterations(), 5);
        for _ in 0..4 {
            resumed.step();
        }
        assert_eq!(resumed.gen_params(), full.gen_params(), "{attack:?}");
        assert_eq!(resumed.swaps(), full.swaps());
        assert_eq!(resumed.traffic(), full.traffic());
        let discs = |md: &MdGan| -> Vec<Vec<f32>> { (0..3).map(|i| disc(md, i)).collect() };
        assert_eq!(discs(&resumed), discs(&full), "{attack:?}");
    }

    /// The sequential cluster, recording the bits of the batches each
    /// exchange ships.
    struct Recording<'a> {
        inner: &'a mut InProcess,
        shipped: Vec<Vec<u32>>,
    }

    impl Cluster for Recording<'_> {
        fn present(&self, slot: usize) -> bool {
            self.inner.present(slot)
        }
        fn crash(&mut self, slot: usize) {
            self.inner.crash(slot)
        }
        fn retire(&mut self, slot: usize) {
            self.inner.retire(slot)
        }
        fn bootstrap(&mut self, call: &Call, src: usize, dst: usize) -> u64 {
            self.inner.bootstrap(call, src, dst)
        }
        fn exchange(
            &mut self,
            call: &Call,
            orders: &[Order],
            batches: &[(Tensor, Vec<usize>)],
        ) -> Vec<(usize, usize, Tensor)> {
            let bits = batches
                .iter()
                .flat_map(|(x, _)| x.data().iter().map(|v| v.to_bits()));
            self.shipped.push(bits.collect());
            self.inner.exchange(call, orders, batches)
        }
        fn swap(&mut self, call: &Call, pairs: &[(usize, usize)]) {
            self.inner.swap(call, pairs)
        }
    }

    /// Robust mode awaiting every feedback, worker 1 silently crashed from
    /// iteration 1: iterations miss their quorum and step no Adam, and the
    /// iteration after each must still ship fresh batches.
    #[test]
    fn a_missed_quorum_still_draws_fresh_batches() {
        let crash = CrashSchedule::new(vec![(1, 1)]);
        let mut md = build_with(3, KPolicy::One, SwapPolicy::Disabled, crash, |c| {
            c.robust.enabled = true;
            c.robust.quorum_frac = 1.0;
        });
        let mut rec = Recording {
            inner: &mut md.cluster,
            shipped: Vec::new(),
        };
        let mut stepped = Vec::new();
        for _ in 0..6 {
            let before = md.coord.server.gen_params();
            md.coord.round(&mut rec);
            stepped.push(md.coord.server.gen_params() != before);
        }
        assert_eq!(rec.shipped.len(), 6);
        let missed: Vec<usize> = (0..5).filter(|&i| !stepped[i]).collect();
        assert!(!missed.is_empty(), "a silent crash must miss a quorum");
        for i in missed {
            assert_ne!(
                rec.shipped[i + 1],
                rec.shipped[i],
                "iteration {} replayed",
                i + 1
            );
        }
    }

    #[test]
    fn resume_preserves_crashed_workers() {
        let crash = CrashSchedule::new(vec![(2, 1)]);
        let mk = || build(3, KPolicy::One, SwapPolicy::Disabled, crash.clone());
        let mut full = mk();
        for _ in 0..6 {
            full.step();
        }
        let mut first = mk();
        for _ in 0..4 {
            first.step();
        }
        assert_eq!(first.alive_workers(), vec![2, 3]);
        let ck = first.checkpoint();
        let mut resumed = mk();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.alive_workers(), vec![2, 3]);
        for _ in 0..2 {
            resumed.step();
        }
        assert_eq!(resumed.gen_params(), full.gen_params());
    }

    #[test]
    fn restore_rejects_missing_and_mismatched_sections() {
        let mut md = build(2, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        md.step();
        // Missing generator.
        let empty = Checkpoint::new(0);
        let e = md.restore(&empty).unwrap_err();
        assert!(e.to_string().contains("generator"), "{e}");
        // Full checkpoint minus one required worker section.
        let ck = md.checkpoint();
        let mut partial = Checkpoint::new(ck.iteration);
        for name in ck.section_names() {
            if name == "opt_d_2_m" {
                continue;
            }
            match ck.get_section(name).unwrap() {
                crate::checkpoint::SectionData::F32(d) => partial.push(name, d.clone()),
                crate::checkpoint::SectionData::U64(d) => partial.push_u64(name, d.clone()),
                crate::checkpoint::SectionData::Bytes(d) => partial.push_bytes(name, d.clone()),
            }
        }
        let e = md.restore(&partial).unwrap_err();
        assert!(e.to_string().contains("opt_d_2_m"), "{e}");
        // Wrong generator length.
        let mut short = Checkpoint::new(1);
        short.push("generator", vec![0.0; 3]);
        let e = md.restore(&short).unwrap_err();
        assert!(matches!(e, TrainError::Checkpoint(_)), "{e}");
    }

    #[test]
    fn parameter_only_checkpoint_is_rejected() {
        let mut md = build(2, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        md.step();
        // What the v1-era writer produced: parameters, no `alive` mask, no
        // optimizer or RNG state. Nothing can resume bit-for-bit from it.
        let mut ck = Checkpoint::new(7);
        ck.push("generator", md.gen_params());
        ck.push("disc_1", disc(&md, 0));
        let e = md.restore(&ck).unwrap_err();
        assert!(matches!(e, TrainError::Checkpoint(_)), "{e}");
        assert_eq!(
            md.alive_workers(),
            vec![1, 2],
            "a rejected file kills no worker"
        );
    }

    #[test]
    fn telemetry_span_counts_match_executed_phases() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build(3, KPolicy::One, SwapPolicy::Ring, CrashSchedule::none())
            .with_telemetry(Arc::clone(&rec));
        let iters = md.swap_interval() * 2; // crosses two swap boundaries
        for _ in 0..iters {
            md.step();
        }
        // Exactly one gen_forward + one g_update span per iteration, one
        // d_feedback span per (iteration × participant).
        assert_eq!(rec.phase_stats(Phase::GenForward).count, iters as u64);
        assert_eq!(rec.phase_stats(Phase::GUpdate).count, iters as u64);
        assert_eq!(rec.phase_stats(Phase::DFeedback).count, (iters * 3) as u64);
        assert_eq!(rec.phase_stats(Phase::Swap).count, 2);
        assert_eq!(rec.counter(Counter::Iterations), iters as u64);
        assert_eq!(rec.counter(Counter::Swaps), 2);
        // Per-worker tallies (worker ids are 1-based).
        let ws = rec.worker_stats();
        for (w, stats) in ws.iter().enumerate().skip(1) {
            assert_eq!(stats.feedbacks, iters as u64, "worker {w}");
            assert_eq!(stats.swaps_in, 2, "worker {w}");
        }
        // Events retained: one IterDone per iteration + two SwapDone.
        assert_eq!(rec.events().len(), iters + 2);
    }

    #[test]
    fn telemetry_does_not_perturb_training() {
        let run = |telemetry: bool| {
            let mut md = build(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
            );
            if telemetry {
                md = md.with_telemetry(Arc::new(Recorder::enabled()));
            }
            for _ in 0..10 {
                md.step();
            }
            md.gen_params()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn telemetry_records_faults() {
        let crash = CrashSchedule::new(vec![(2, 1)]);
        let rec = Arc::new(Recorder::enabled());
        let mut md =
            build(3, KPolicy::One, SwapPolicy::Disabled, crash).with_telemetry(Arc::clone(&rec));
        for _ in 0..3 {
            md.step();
        }
        use md_telemetry::Counter;
        assert_eq!(rec.counter(Counter::Faults), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.event == Event::WorkerFault { iter: 2, worker: 1 }));
    }

    #[test]
    fn robust_step_on_perfect_network_matches_plain_step() {
        // The reliable arm of the wire against the lossy arm on an empty
        // plan: what holds the two equal.
        let run = |robust: bool| {
            let mut md = build_with(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
                |c| c.robust.enabled = robust,
            );
            assert_eq!(md.cluster.faults.is_some(), robust);
            for _ in 0..10 {
                md.step();
            }
            (md.gen_params(), md.traffic().class_bytes)
        };
        let (plain_p, plain_b) = run(false);
        let (robust_p, robust_b) = run(true);
        assert_eq!(plain_p, robust_p, "perfect-network robust run diverged");
        assert_eq!(plain_b, robust_b, "byte accounting diverged");
    }

    #[test]
    fn robust_step_under_drops_stays_finite_and_counts_faults() {
        let data = mnist_like(12, 3 * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(3, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = MdGanConfig {
            workers: 3,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Ring,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            crash: CrashSchedule::none(),
            fault: FaultPlan::lossy(11, 0.2),
            ..MdGanConfig::default()
        };
        let mut md = MdGan::new(&spec, shards, cfg);
        for _ in 0..16 {
            md.step();
        }
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
        let r = md.traffic();
        assert!(r.dropped_msgs > 0, "20% drop over 16 iters must drop");
        assert!(r.retries > 0, "default retries must fire");
        assert_eq!(
            r.bytes_sent(),
            r.bytes_delivered() + r.dropped_bytes,
            "conservation"
        );
    }

    #[test]
    fn robust_seed_determinism() {
        let run = || {
            let mut md = build_with(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
                |c| c.fault = FaultPlan::lossy(5, 0.1),
            );
            for _ in 0..10 {
                md.step();
            }
            md.gen_params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn robust_silent_crash_is_suspected_not_oracled() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build_with(
            3,
            KPolicy::One,
            SwapPolicy::Disabled,
            CrashSchedule::new(vec![(2, 1)]),
            |c| {
                c.robust.enabled = true;
                c.robust.suspect_after = 2;
                c.robust.probe_period = 0;
            },
        )
        .with_telemetry(Arc::clone(&rec));
        for _ in 0..6 {
            md.step();
        }
        assert_eq!(rec.counter(Counter::WorkersSuspected), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.event == Event::WorkerSuspected { iter: 3, worker: 1 }));
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn k_equals_workers_gives_distinct_batches() {
        let mut md = build(4, KPolicy::All, SwapPolicy::Disabled, CrashSchedule::none());
        assert_eq!(md.k(), 4);
        md.step();
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    fn build_elastic(workers: usize, events: Vec<ChurnEvent>) -> MdGan {
        let churn = ChurnPlan::from_events(workers, events).unwrap();
        let total = churn.max_workers(workers);
        let data = mnist_like(12, total * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(total, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = MdGanConfig {
            workers,
            k: KPolicy::LogN,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            churn,
            ..MdGanConfig::default()
        };
        MdGan::new(&spec, shards, cfg)
    }

    #[test]
    fn join_bootstraps_and_contributes_same_iteration() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build_elastic(
            3,
            vec![ChurnEvent {
                iter: 2,
                worker: 4,
                kind: ChurnKind::Join,
            }],
        )
        .with_telemetry(Arc::clone(&rec));
        md.step();
        md.step();
        assert_eq!(md.alive_workers(), vec![1, 2, 3]);
        let epoch_before = md.membership().epoch();
        md.step(); // iter 2: worker 4 joins, bootstraps, feeds back
        assert_eq!(md.alive_workers(), vec![1, 2, 3, 4]);
        assert_eq!(md.membership().epoch(), epoch_before + 1);
        assert_eq!(rec.counter(Counter::WorkersJoined), 1);
        assert_eq!(rec.counter(Counter::Bootstraps), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.event == Event::WorkerJoined { iter: 2, worker: 4 }));
        assert!(rec.events().iter().any(
            |e| matches!(e.event, Event::BootstrapDone { iter: 2, worker: 4, bytes } if bytes > 0)
        ));
        // The joiner contributed feedback within its join iteration.
        assert_eq!(rec.worker_stats()[4].feedbacks, 1);
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn graceful_leave_drains_then_departs() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build_elastic(
            3,
            vec![ChurnEvent {
                iter: 1,
                worker: 2,
                kind: ChurnKind::Leave,
            }],
        )
        .with_telemetry(Arc::clone(&rec));
        md.step();
        md.step(); // iter 1: worker 2 feeds back one last time, then leaves
        assert_eq!(md.alive_workers(), vec![1, 3]);
        assert_eq!(rec.counter(Counter::WorkersLeft), 1);
        // Drained: the leaver contributed in both iterations 0 and 1.
        assert_eq!(rec.worker_stats()[2].feedbacks, 2);
        assert_eq!(md.membership().status(1), MemberStatus::Left);
        // Frozen, not dropped: its traffic totals survive departure.
        let link_to_2 = md.traffic();
        md.step();
        assert_eq!(
            md.traffic().bytes(LinkClass::WorkerToServer)
                - link_to_2.bytes(LinkClass::WorkerToServer),
            // Only two workers feed back after the leave.
            2 * 4 * (12 * 12) * 4
        );
    }

    #[test]
    fn churn_crash_rebalances_split_over_survivors() {
        let mut md = build_elastic(
            4,
            vec![ChurnEvent {
                iter: 1,
                worker: 3,
                kind: ChurnKind::Crash,
            }],
        );
        md.step();
        md.step();
        assert_eq!(md.alive_workers(), vec![1, 2, 4]);
        assert_eq!(md.membership().status(2), MemberStatus::Crashed);
        let before = md.gen_params();
        md.step();
        assert_ne!(before, md.gen_params());
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn churn_run_is_deterministic_and_resumable() {
        let events = vec![
            ChurnEvent {
                iter: 2,
                worker: 4,
                kind: ChurnKind::Join,
            },
            ChurnEvent {
                iter: 4,
                worker: 1,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                iter: 6,
                worker: 2,
                kind: ChurnKind::Leave,
            },
        ];
        let mk = || build_elastic(3, events.clone());
        let mut full = mk();
        for _ in 0..9 {
            full.step();
        }
        let mut first = mk();
        for _ in 0..5 {
            first.step();
        }
        let ck = Checkpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
        assert!(ck.get_u64("membership").is_some());
        let mut resumed = mk();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.alive_workers(), vec![2, 3, 4]);
        for _ in 0..4 {
            resumed.step();
        }
        assert_eq!(resumed.gen_params(), full.gen_params());
        assert_eq!(resumed.traffic(), full.traffic());
        assert_eq!(resumed.alive_workers(), full.alive_workers());
        assert_eq!(resumed.membership(), full.membership());
    }

    #[test]
    fn churn_disabled_checkpoint_has_no_membership_section() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        md.step();
        assert!(md.checkpoint().get_u64("membership").is_none());
    }

    #[test]
    fn robust_eviction_is_permanent_and_recorded() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let data = mnist_like(12, 3 * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(3, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut cfg = MdGanConfig {
            workers: 3,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Disabled,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            crash: CrashSchedule::new(vec![(2, 1)]),
            ..MdGanConfig::default()
        };
        cfg.robust.enabled = true;
        cfg.robust.suspect_after = 2;
        cfg.robust.evict_after = 2;
        // Probing every round keeps the miss streak advancing past the
        // suspicion threshold and into eviction territory.
        cfg.robust.probe_period = 1;
        let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(&rec));
        for _ in 0..10 {
            md.step();
        }
        assert_eq!(rec.counter(Counter::WorkersSuspected), 1);
        assert_eq!(rec.counter(Counter::WorkersEvicted), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::WorkerEvicted { worker: 1, .. })));
        assert_eq!(md.membership().status(0), MemberStatus::Evicted);
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn freerider_is_flagged_and_evicted_via_membership() {
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let data = mnist_like(12, 4 * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(4, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut cfg = MdGanConfig {
            workers: 4,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Disabled,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 7,
            // Worker 1 holds no data worth anything: it fabricates its
            // feedback from fresh noise every iteration.
            attacks: vec![Attack::PureNoise { std: 5.0 }],
            ..MdGanConfig::default()
        };
        cfg.defense.enabled = true;
        cfg.robust.suspect_after = 2;
        cfg.robust.evict_after = 2;
        cfg.robust.probe_period = 1;
        let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(&rec));
        for _ in 0..20 {
            md.step();
        }
        // The forensics flagged the free-rider, the detector graduated the
        // flag into a permanent membership eviction, and the honest
        // majority survived.
        assert!(rec.counter(Counter::WorkersFlagged) >= 1);
        assert_eq!(rec.counter(Counter::FreeridersEvicted), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::FreeriderEvicted { worker: 1, .. })));
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::WorkerEvicted { worker: 1, .. })));
        assert_eq!(md.membership().status(0), MemberStatus::Evicted);
        for w in 1..4 {
            assert_eq!(md.membership().status(w), MemberStatus::Alive);
        }
        // Every flagging decision carries its scores in the run record.
        let flag = rec
            .events()
            .iter()
            .find_map(|e| match e.event {
                Event::WorkerFlagged { worker: 1, .. } => Some(e.to_json()),
                _ => None,
            })
            .expect("flag event retained");
        assert!(flag.contains("norm_score"), "{flag}");
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn attacks_now_compose_with_robust_aggregation() {
        // The pre-defense runtime rejected attacks ∪ robust mode; the
        // lifted restriction lets a sign-flipper run against the median
        // aggregator over a lossy network without panicking.
        let data = mnist_like(12, 5 * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(5, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut cfg = MdGanConfig {
            workers: 5,
            k: KPolicy::One,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Disabled,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 100,
            seed: 11,
            attacks: vec![Attack::SignFlip { scale: 1.0 }],
            aggregation: Aggregation::CoordinateMedian,
            ..MdGanConfig::default()
        };
        cfg.fault = FaultPlan {
            drop: 0.05,
            ..FaultPlan::none()
        };
        let mut md = MdGan::new(&spec, shards, cfg);
        for _ in 0..6 {
            md.step();
        }
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
        assert_eq!(md.iterations(), 6);
    }
}
