//! Thread-per-node MD-GAN runtime over `md-simnet`.
//!
//! Every worker runs on its own OS thread (`worker_loop`) and talks to
//! the server exclusively through routed messages; the discriminator swap
//! travels directly worker-to-worker. The server is the same
//! `Coordinator` the sequential [`MdGan`](crate::mdgan::trainer::MdGan)
//! steps, over a `Routed` cluster: `run_threaded*` is spawn, one
//! `round` per iteration, stop. RNG streams are forked identically and
//! gathers are sorted by worker id, so given the same [`MdGanConfig`] and
//! shards the two runtimes produce **bit-for-bit** the same generator (an
//! integration test asserts it).
//!
//! With an active [`FaultPlan`](md_simnet::FaultPlan) (or
//! `cfg.robust.enabled`) the router carries the seeded fault layer: data
//! messages are retried a bounded number of times and injected crashes are
//! silent (the worker drains its queue without answering). No wait here
//! has a deadline. Every message a receiver waits for arrives exactly
//! once, as its payload or as an uncharged [`MdMsg::Lost`]: a sender whose
//! fate draw lost the payload sends the marker in its place, and the
//! server, which knows who crashed, sends it for a crashed swap source.
//! The gather therefore waits for an exact count, and a swap destination
//! for exactly one message. Fates are drawn per logical message from the
//! plan's seed, so this path too is bit-for-bit the sequential trainer's,
//! however slow the host.

use crate::arch::ArchSpec;
use crate::byzantine::{push_echoes, restore_echoes, AttackState};
use crate::checkpoint::Checkpoint;
use crate::compression::Codec;
use crate::config::MdGanConfig;
use crate::error::TrainError;
use crate::eval::{Evaluator, ScoreTimeline};
use crate::mdgan::round::{Call, Cluster, Coordinator, Order};
use crate::mdgan::worker::{MdWorker, WorkerState};
use crate::mdgan::MdMsg;
use md_data::Dataset;
use md_nn::optim::AdamState;
use md_nn::param::param_bytes;
use md_simnet::{Delivery, Endpoint, Envelope, NodeId, Router, TrafficReport, SERVER};
use md_telemetry::{Event, Recorder, TraceCtx};
use md_tensor::Tensor;
use std::sync::Arc;

/// Outcome of a threaded run.
pub struct ThreadedResult {
    /// Score timeline (empty when no evaluator was supplied).
    pub timeline: ScoreTimeline,
    /// Final flat generator parameters.
    pub gen_params: Vec<f32>,
    /// Total traffic moved during training.
    pub traffic: TrafficReport,
    /// Worker ids alive at the end.
    pub alive: Vec<usize>,
}

/// After a data send: a payload the fault layer lost for good is followed
/// by an uncharged `Lost`, so the receiver, which waits for exactly one
/// message, is not left waiting. Without a fault layer nothing is lost.
fn settle(ep: &Endpoint<MdMsg>, to: NodeId, sent: Delivery) {
    if !sent.delivered {
        ep.send_uncharged(to, MdMsg::Lost)
            .expect("destination endpoint dropped");
    }
}

/// Worker-thread body: serve batch/swap/stop requests until stopped.
///
/// Messages that arrive while the worker is blocked waiting for its swap
/// counterpart (the next iteration's `Batches` can already be queued — the
/// server does not wait for swaps to finish) are buffered and processed in
/// order afterwards.
///
/// Feedbacks and discriminators go through the fault layer (when the
/// router has one) with up to `retries` retransmissions, and a `Crash`
/// message puts the worker into a silent drain loop so its death is only
/// observable through the feedbacks it no longer sends.
fn worker_loop(
    mut worker: MdWorker,
    ep: Endpoint<MdMsg>,
    telemetry: Arc<Recorder>,
    retries: u32,
    mut attack: AttackState,
) {
    use std::collections::VecDeque;
    // A swap counterpart's parameters (or its `Lost`) may arrive before
    // our own SwapTo.
    let mut pending_disc: Option<Option<Vec<f32>>> = None;
    // Buffered messages keep their envelope's trace context so spans
    // recorded later still link to the send that caused them.
    let mut buffered: VecDeque<(MdMsg, TraceCtx)> = VecDeque::new();
    loop {
        let (msg, ctx) = match buffered.pop_front() {
            Some(m) => m,
            None => {
                let e = ep.recv();
                (e.msg, e.ctx)
            }
        };
        match msg {
            MdMsg::Batches {
                iter,
                g_id,
                xg,
                xg_labels,
                xd,
                xd_labels,
            } => {
                // The compute span hangs off the server's downlink send and
                // the uplink chains off the compute span.
                let (xd, xg) = ((xd, xd_labels), (xg, xg_labels));
                let (grad, bytes, fctx) = worker.turn(
                    &mut attack,
                    &xd,
                    &xg,
                    Codec::None,
                    &telemetry,
                    ctx,
                    iter as u64,
                );
                let feedback = MdMsg::Feedback { g_id, grad };
                let sent = ep.send_data_ctx(SERVER, feedback, bytes, iter as u64, retries, fctx);
                settle(&ep, SERVER, sent);
            }
            MdMsg::SwapTo { to, iter } => {
                let params = worker.disc_params();
                let bytes = param_bytes(params.len());
                let disc = MdMsg::Disc { params };
                let sent = ep.send_data_ctx(to, disc, bytes, iter as u64, retries, ctx);
                settle(&ep, to, sent);
                // Exactly one `Disc` or `Lost` is on its way to us.
                let incoming = match pending_disc.take() {
                    Some(p) => p,
                    None => loop {
                        let e = ep.recv();
                        match e.msg {
                            MdMsg::Disc { params } => break Some(params),
                            MdMsg::Lost => break None,
                            other => buffered.push_back((other, e.ctx)),
                        }
                    },
                };
                worker.swap_in(incoming.as_deref(), &telemetry);
            }
            msg @ (MdMsg::Disc { .. } | MdMsg::Lost) => {
                assert!(
                    pending_disc.is_none(),
                    "worker {} received two swap payloads",
                    ep.id()
                );
                pending_disc = Some(match msg {
                    MdMsg::Disc { params } => Some(params),
                    _ => None,
                });
            }
            MdMsg::DiscPull { iter } => {
                // Bootstrap-on-join: ship the snapshot to the server at
                // full parameter cost (this is real simulated traffic,
                // unlike the uncharged StateRequest control path). Joins
                // never run with a fault layer, so the server's wait for it
                // needs no `Lost`.
                let params = worker.disc_params();
                let bytes = param_bytes(params.len());
                let disc = MdMsg::Disc { params };
                ep.send_data_ctx(SERVER, disc, bytes, iter as u64, retries, ctx);
            }
            MdMsg::Bootstrap { blob } => {
                let disc = crate::mdgan::bootstrap_disc(&blob)
                    .expect("server-built bootstrap blob decodes");
                worker.set_disc_params(&disc);
            }
            MdMsg::StateRequest => {
                let WorkerState { disc, opt } = worker.state();
                let state = MdMsg::WorkerState {
                    id: ep.id(),
                    disc,
                    adam_t: opt.t,
                    opt_m: opt.m,
                    opt_v: opt.v,
                    echo: attack.echo().cloned(),
                };
                ep.send_uncharged(SERVER, state)
                    .expect("server endpoint dropped");
            }
            MdMsg::Crash => {
                // Fail silently: keep draining (so senders never observe
                // the death) until the final Stop.
                loop {
                    let m = match buffered.pop_front() {
                        Some((m, _)) => m,
                        None => ep.recv().msg,
                    };
                    if matches!(m, MdMsg::Stop) {
                        return;
                    }
                }
            }
            MdMsg::Stop => break,
            MdMsg::Feedback { .. } | MdMsg::WorkerState { .. } => {
                panic!("worker received a server-bound message")
            }
        }
    }
}

/// Runs MD-GAN with one thread per worker.
///
/// Trains for `iters` global iterations and, when an evaluator is
/// supplied, scores on the schedule of a sequential
/// [`train_curve`](crate::supervisor::train_curve) (the start, every
/// `eval_every`, the end), without its health checks.
pub fn run_threaded(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: MdGanConfig,
    evaluator: Option<&mut Evaluator>,
    iters: usize,
    eval_every: usize,
) -> ThreadedResult {
    run_threaded_with(
        spec,
        shards,
        cfg,
        evaluator,
        iters,
        eval_every,
        Arc::new(Recorder::disabled()),
    )
}

/// As [`run_threaded`], with an explicit telemetry recorder.
///
/// The recorder is shared by the server loop and all worker threads:
/// workers time their `d_feedback` phase and tally per-worker stats, the
/// router charges every send to the `comm` phase, and the server records
/// `gen_forward`/`g_update`/`swap`/`eval` plus per-iteration events.
/// Telemetry never alters control flow, so the bit-for-bit equivalence
/// with the sequential runtime is preserved.
pub fn run_threaded_with(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: MdGanConfig,
    evaluator: Option<&mut Evaluator>,
    iters: usize,
    eval_every: usize,
    telemetry: Arc<Recorder>,
) -> ThreadedResult {
    run_threaded_inner(
        spec, shards, cfg, evaluator, iters, eval_every, telemetry, None,
    )
    .expect("checkpoint-free threaded run cannot fail")
}

/// Crash-consistent checkpoint policy for the threaded runtime.
#[derive(Clone, Debug)]
pub struct ThreadedCheckpointing {
    /// Checkpoint file; written atomically, and loaded on start when it
    /// already exists (resume).
    pub path: std::path::PathBuf,
    /// Write a checkpoint every this many global iterations
    /// (`0` = resume-only, no periodic saves).
    pub every: usize,
}

/// As [`run_threaded_with`], with crash-consistent checkpoint/resume.
///
/// The checkpoint file uses exactly the sequential runtime's section
/// layout, so a checkpoint written here can be restored by
/// [`MdGan::restore`](crate::mdgan::trainer::MdGan::restore) and vice
/// versa, and a killed-and-resumed threaded run is **bit-identical** to an
/// uninterrupted one (also to the equivalent sequential run). Robust-mode
/// configs are rejected: the failure detector and per-link fault RNG are
/// not checkpointed (see DESIGN.md §10).
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_checkpointed(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: MdGanConfig,
    evaluator: Option<&mut Evaluator>,
    iters: usize,
    eval_every: usize,
    telemetry: Arc<Recorder>,
    ckpt: &ThreadedCheckpointing,
) -> Result<ThreadedResult, TrainError> {
    run_threaded_inner(
        spec,
        shards,
        cfg,
        evaluator,
        iters,
        eval_every,
        telemetry,
        Some(ckpt),
    )
}

/// The threaded runtime's [`Cluster`]: the server's endpoint, and who is
/// still listening behind the others.
struct Routed {
    server_ep: Endpoint<MdMsg>,
    /// Ground truth: the worker's thread is serving requests.
    alive: Vec<bool>,
    /// Workers dead at resume time were never spawned (no endpoint).
    spawned: Vec<bool>,
    /// Crashes are silent: the crashed keep draining their queue.
    robust: bool,
}

impl Routed {
    /// Reliable, zero-byte control message.
    fn tell(&self, slot: usize, msg: MdMsg, ctx: TraceCtx) {
        self.server_ep
            .send_ctx(slot + 1, msg, 0, ctx)
            .expect("destination endpoint dropped");
    }

    /// Requests each alive worker's state and recorded echo over the normal
    /// message channels (`StateRequest`/`WorkerState`) — a reply arrives
    /// only after the worker has drained everything queued before the
    /// request (feedbacks, in-progress swaps), so this is the
    /// post-iteration barrier state. Both directions travel uncharged:
    /// checkpoint persistence must not perturb traffic accounting, or a
    /// resumed run would stop being bit-identical to an uninterrupted one.
    fn worker_states(&self) -> (Vec<Option<WorkerState>>, Vec<Option<Tensor>>) {
        let asked = self.alive.iter().filter(|&&a| a).count();
        for slot in (0..self.alive.len()).filter(|&w| self.alive[w]) {
            self.server_ep
                .send_uncharged(slot + 1, MdMsg::StateRequest)
                .expect("destination endpoint dropped");
        }
        let mut states: Vec<Option<WorkerState>> = self.alive.iter().map(|_| None).collect();
        let mut echoes: Vec<Option<Tensor>> = self.alive.iter().map(|_| None).collect();
        for _ in 0..asked {
            match self.server_ep.recv().msg {
                MdMsg::WorkerState {
                    id,
                    disc,
                    adam_t: t,
                    opt_m: m,
                    opt_v: v,
                    echo,
                } => {
                    let opt = AdamState { t, m, v };
                    states[id - 1] = Some(WorkerState { disc, opt });
                    echoes[id - 1] = echo;
                }
                other => panic!("server expected WorkerState, got {other:?}"),
            }
        }
        (states, echoes)
    }

    /// Shuts everyone down. Robust mode keeps crashed workers draining
    /// their queue, so they too need the final `Stop`.
    fn stop_all(&self) {
        for slot in 0..self.alive.len() {
            if self.spawned[slot] && (self.robust || self.alive[slot]) {
                self.tell(slot, MdMsg::Stop, TraceCtx::NONE);
            }
        }
    }
}

impl Cluster for Routed {
    fn present(&self, slot: usize) -> bool {
        self.alive[slot]
    }

    /// Oracle mode stops the thread outright; robust mode crashes it
    /// *silently* — the server must notice through missed feedbacks.
    fn crash(&mut self, slot: usize) {
        self.alive[slot] = false;
        let fate = if self.robust {
            MdMsg::Crash
        } else {
            MdMsg::Stop
        };
        self.tell(slot, fate, TraceCtx::NONE);
    }

    fn retire(&mut self, slot: usize) {
        self.alive[slot] = false;
        self.tell(slot, MdMsg::Stop, TraceCtx::NONE);
    }

    fn bootstrap(&mut self, call: &Call, src: usize, dst: usize) -> u64 {
        self.tell(src, MdMsg::DiscPull { iter: call.iter }, call.ctx);
        let params = match self.server_ep.recv().msg {
            MdMsg::Disc { params } => params,
            other => panic!("server expected a bootstrap Disc, got {other:?}"),
        };
        let blob = crate::mdgan::bootstrap_blob(call.iter as u64, &params);
        let blob_len = blob.len() as u64;
        self.server_ep
            .send_ctx(dst + 1, MdMsg::Bootstrap { blob }, blob_len, call.ctx)
            .expect("destination endpoint dropped");
        blob_len
    }

    fn exchange(
        &mut self,
        call: &Call,
        orders: &[Order],
        batches: &[(Tensor, Vec<usize>)],
    ) -> Vec<(usize, usize, Tensor)> {
        let iter = call.iter;
        // Every alive worker whose batches arrived answers exactly once,
        // with its feedback or the `Lost` standing in for it; a crashed
        // one drains its batches silently.
        let mut owed = 0;
        for o in orders {
            let ((xg, xg_labels), (xd, xd_labels)) = (&batches[o.g_id], &batches[o.d_id]);
            let msg = MdMsg::Batches {
                iter,
                g_id: o.g_id,
                xg: xg.clone(),
                xg_labels: xg_labels.clone(),
                xd: xd.clone(),
                xd_labels: xd_labels.clone(),
            };
            let sent = self.server_ep.send_data_ctx(
                o.slot + 1,
                msg,
                o.bytes,
                iter as u64,
                call.retries,
                call.ctx,
            );
            owed += usize::from(sent.delivered && self.alive[o.slot]);
        }
        // Sorted by sender, so the server merges (and the forensics
        // observes) in the sequential runtime's order.
        let feedback = |e: Envelope<MdMsg>| match e.msg {
            MdMsg::Feedback { g_id, grad } => Some((e.from - 1, g_id, grad)),
            MdMsg::Lost => None,
            other => panic!("server expected Feedback, got {other:?}"),
        };
        let answers = self.server_ep.recv_n_sorted(owed);
        answers.into_iter().filter_map(feedback).collect()
    }

    /// The server only names the destinations; the parameters travel
    /// worker to worker, and nobody waits for them to land. A crashed
    /// source ships nothing, so its destination is told so right away.
    fn swap(&mut self, call: &Call, pairs: &[(usize, usize)]) {
        for &(src, dst) in pairs {
            if self.alive[src] {
                let to = MdMsg::SwapTo {
                    to: dst + 1,
                    iter: call.iter,
                };
                self.tell(src, to, call.ctx);
            } else {
                self.server_ep
                    .send_uncharged(dst + 1, MdMsg::Lost)
                    .expect("destination endpoint dropped");
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_threaded_inner(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: MdGanConfig,
    mut evaluator: Option<&mut Evaluator>,
    iters: usize,
    eval_every: usize,
    telemetry: Arc<Recorder>,
    ckpt: Option<&ThreadedCheckpointing>,
) -> Result<ThreadedResult, TrainError> {
    let robust = cfg.is_robust();
    if robust && ckpt.is_some() {
        return Err(TrainError::Checkpoint(
            "robust-mode threaded runs cannot checkpoint/resume: \
             detector and fault-RNG state is not captured"
                .into(),
        ));
    }
    if !cfg.churn.is_none() && ckpt.is_some() {
        return Err(TrainError::Checkpoint(
            "elastic threaded runs cannot checkpoint/resume: \
             the membership gather is not implemented"
                .into(),
        ));
    }
    let total = cfg.total_workers();
    let mut router: Router<MdMsg> = Router::new(total).with_telemetry(Arc::clone(&telemetry));
    if robust {
        router = router.with_faults(cfg.fault.clone());
    }
    let server_ep = router.endpoint(SERVER);
    let worker_eps: Vec<Endpoint<MdMsg>> = (1..=total).map(|i| router.endpoint(i)).collect();
    let retries = cfg.robust.retries;

    let (mut coord, workers, mut attacks) =
        Coordinator::build(spec, shards, cfg, router.stats(), Arc::clone(&telemetry));
    let mut workers: Vec<Option<MdWorker>> = workers.into_iter().map(Some).collect();
    if let Some(pol) = ckpt.filter(|pol| pol.path.exists()) {
        let ck = Checkpoint::load(&pol.path)?;
        if ck.get_u64("disc_hosts").is_some() {
            return Err(TrainError::Checkpoint(
                "checkpoint uses discriminator-count subsetting, \
                 which the threaded runtime does not support"
                    .into(),
            ));
        }
        coord.restore(&ck, &mut workers)?;
        restore_echoes(&ck, &mut attacks)?;
        telemetry.event(Event::Resumed {
            iter: coord.iterations(),
        });
    }
    let alive: Vec<bool> = workers.iter().map(Option::is_some).collect();
    let mut routed = Routed {
        server_ep,
        spawned: alive.clone(),
        alive,
        robust,
    };

    let mut timeline = ScoreTimeline::new();
    let mut ckpt_err: Option<TrainError> = None;
    crossbeam::thread::scope(|scope| {
        for ((worker, ep), attack) in workers.into_iter().zip(worker_eps).zip(attacks) {
            let Some(worker) = worker else { continue };
            let telemetry = Arc::clone(&telemetry);
            scope.spawn(move |_| worker_loop(worker, ep, telemetry, retries, attack));
        }
        let start = coord.iterations();
        if let (0, Some(ev)) = (start, evaluator.as_deref_mut()) {
            ev.score_point(&mut coord.server.gen, 0, &telemetry, &mut timeline);
        }
        for done in start + 1..=iters {
            coord.round(&mut routed);
            if let Some(ev) = evaluator.as_deref_mut() {
                if done % eval_every.max(1) == 0 || done == iters {
                    ev.score_point(&mut coord.server.gen, done, &telemetry, &mut timeline);
                }
            }
            if let Some(pol) = ckpt.filter(|pol| pol.every > 0 && done % pol.every == 0) {
                let (states, echoes) = routed.worker_states();
                let mut ck = coord.checkpoint(states);
                push_echoes(&mut ck, echoes.iter().map(Option::as_ref));
                match ck.save_atomic(&pol.path) {
                    Ok(()) => telemetry.event(Event::CheckpointWritten {
                        iter: done,
                        bytes: ck.byte_size() as u64,
                    }),
                    Err(e) => {
                        ckpt_err = Some(TrainError::Io(e));
                        break;
                    }
                }
            }
        }
        routed.stop_all();
    })
    .expect("worker thread panicked");

    if let Some(e) = ckpt_err {
        return Err(e);
    }
    Ok(ThreadedResult {
        timeline,
        gen_params: coord.server.gen_params(),
        traffic: coord.stats().report(),
        alive: coord.alive_workers(&routed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GanHyper, KPolicy, SwapPolicy};
    use md_data::synthetic::mnist_like;
    use md_simnet::{CrashSchedule, FaultPlan};
    use md_telemetry::Phase;
    use md_tensor::rng::Rng64;

    fn setup(workers: usize) -> (ArchSpec, Vec<Dataset>, MdGanConfig) {
        let data = mnist_like(12, workers * 24, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(workers, &mut rng);
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
            iterations: 12,
            seed: 7,
            crash: CrashSchedule::none(),
            ..MdGanConfig::default()
        };
        (spec, shards, cfg)
    }

    #[test]
    fn threaded_runs_and_produces_finite_params() {
        let (spec, shards, cfg) = setup(3);
        let res = run_threaded(&spec, shards, cfg, None, 12, 4);
        assert!(res.gen_params.iter().all(|v| v.is_finite()));
        assert_eq!(res.alive, vec![1, 2, 3]);
        assert!(res.traffic.total_bytes() > 0);
    }

    #[test]
    fn threaded_equals_sequential_bit_for_bit() {
        let (spec, shards, cfg) = setup(3);
        let res = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);

        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards, cfg);
        for _ in 0..10 {
            seq.step();
        }
        assert_eq!(res.gen_params, seq.gen_params(), "runtimes diverged");
        // Byte counts agree (message counts differ by control messages).
        assert_eq!(res.traffic.class_bytes, seq.traffic().class_bytes);
    }

    #[test]
    fn threaded_telemetry_counts_phases_and_workers() {
        use md_telemetry::Counter;
        let (spec, shards, cfg) = setup(3);
        let rec = Arc::new(Recorder::enabled());
        let res = run_threaded_with(&spec, shards, cfg, None, 10, 1000, Arc::clone(&rec));
        assert_eq!(res.alive, vec![1, 2, 3]);
        assert_eq!(rec.phase_stats(Phase::GenForward).count, 10);
        assert_eq!(rec.phase_stats(Phase::GUpdate).count, 10);
        // One d_feedback span per (iteration × worker), recorded on the
        // worker threads.
        assert_eq!(rec.phase_stats(Phase::DFeedback).count, 30);
        // Every routed message lands in the comm histogram.
        assert_eq!(
            rec.phase_stats(Phase::Comm).count,
            rec.counter(Counter::MsgsSent)
        );
        assert!(rec.counter(Counter::BytesSent) > 0);
        // swap_interval is 6 for this setup (24 objects / batch 4), so 10
        // iterations cross exactly one swap boundary.
        let ws = rec.worker_stats();
        for (w, stats) in ws.iter().enumerate().skip(1) {
            assert_eq!(stats.feedbacks, 10, "worker {w}");
            assert_eq!(stats.swaps_in, 1, "worker {w}");
        }
        assert_eq!(rec.counter(Counter::Iterations), 10);
        assert_eq!(rec.counter(Counter::Swaps), 1);
    }

    #[test]
    fn threaded_telemetry_does_not_perturb_training() {
        let (spec, shards, cfg) = setup(3);
        let plain = run_threaded(&spec, shards.clone(), cfg.clone(), None, 8, 1000);
        let rec = Arc::new(Recorder::enabled());
        let traced = run_threaded_with(&spec, shards, cfg, None, 8, 1000, rec);
        assert_eq!(plain.gen_params, traced.gen_params);
    }

    #[test]
    fn threaded_with_crashes_survives() {
        let (spec, shards, mut cfg) = setup(3);
        cfg.crash = CrashSchedule::new(vec![(3, 1), (6, 2)]);
        let res = run_threaded(&spec, shards, cfg, None, 10, 1000);
        assert_eq!(res.alive, vec![3]);
        assert!(res.gen_params.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn robust_mode_without_faults_matches_oracle_mode_params() {
        // On a perfect network with no crashes, the robust path performs
        // the same logical computation: every worker answers every
        // iteration, so the generator trajectory is identical.
        let (spec, shards, cfg) = setup(3);
        let oracle = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);
        let mut rcfg = cfg;
        rcfg.robust.enabled = true;
        let robust = run_threaded(&spec, shards, rcfg, None, 10, 1000);
        assert_eq!(oracle.gen_params, robust.gen_params);
        assert_eq!(oracle.traffic.class_bytes, robust.traffic.class_bytes);
    }

    #[test]
    fn robust_mode_survives_silent_crash_and_suspects_worker() {
        use md_telemetry::Counter;
        let (spec, shards, mut cfg) = setup(3);
        cfg.robust.enabled = true;
        cfg.robust.suspect_after = 2;
        cfg.robust.probe_period = 0; // no probing: the dead stay suspected
        cfg.crash = CrashSchedule::new(vec![(3, 2)]);
        let rec = Arc::new(Recorder::enabled());
        let res = run_threaded_with(&spec, shards, cfg, None, 8, 1000, Arc::clone(&rec));
        assert!(res.gen_params.iter().all(|v| v.is_finite()));
        // Two missed feedbacks (iterations 3 and 4) → suspected once.
        assert_eq!(rec.counter(Counter::WorkersSuspected), 1);
        let suspects: Vec<usize> = rec
            .events()
            .iter()
            .filter(|e| e.event.kind() == "worker_suspected")
            .filter_map(|e| e.event.worker())
            .collect();
        assert_eq!(suspects, vec![2]);
    }

    fn temp_ckpt_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mdgan-threaded-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ck.bin")
    }

    #[test]
    fn threaded_kill_and_resume_is_bit_identical_and_cross_runtime() {
        use md_telemetry::Counter;
        let (spec, shards, cfg) = setup(3);
        let path = temp_ckpt_path("resume");
        let _ = std::fs::remove_file(&path);
        let pol = ThreadedCheckpointing {
            path: path.clone(),
            every: 4,
        };

        // Uninterrupted reference, no checkpointing involved at all.
        let full = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);

        // Phase 1: run with checkpointing up to iteration 8 — the file
        // then holds the iteration-8 boundary state, exactly what a
        // SIGKILL between iterations 8 and 10 would leave behind.
        let rec1 = Arc::new(Recorder::enabled());
        run_threaded_checkpointed(
            &spec,
            shards.clone(),
            cfg.clone(),
            None,
            8,
            1000,
            Arc::clone(&rec1),
            &pol,
        )
        .unwrap();
        assert_eq!(rec1.counter(Counter::CheckpointsWritten), 2);
        assert_eq!(rec1.counter(Counter::ResumeCount), 0);

        // Phase 2: a fresh process picks up the file and finishes.
        let rec2 = Arc::new(Recorder::enabled());
        let resumed = run_threaded_checkpointed(
            &spec,
            shards.clone(),
            cfg.clone(),
            None,
            10,
            1000,
            Arc::clone(&rec2),
            &pol,
        )
        .unwrap();
        assert_eq!(rec2.counter(Counter::ResumeCount), 1);
        assert_eq!(resumed.gen_params, full.gen_params, "resume diverged");
        // Checkpoint persistence left the traffic accounting untouched.
        assert_eq!(resumed.traffic, full.traffic);
        assert_eq!(resumed.alive, full.alive);

        // Cross-runtime: the same file resumes the sequential trainer to
        // the same generator.
        let ck = Checkpoint::load(&path).unwrap();
        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards, cfg);
        seq.restore(&ck).unwrap();
        for _ in 8..10 {
            seq.step();
        }
        assert_eq!(
            seq.gen_params(),
            full.gen_params,
            "sequential resume of a threaded checkpoint diverged"
        );

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn threaded_resumes_a_sequential_checkpoint() {
        let (spec, shards, cfg) = setup(3);
        let path = temp_ckpt_path("cross");
        let _ = std::fs::remove_file(&path);

        let full = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);

        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards.clone(), cfg.clone());
        for _ in 0..6 {
            seq.step();
        }
        seq.checkpoint().save_atomic(&path).unwrap();

        let pol = ThreadedCheckpointing {
            path: path.clone(),
            every: 0, // resume-only
        };
        let resumed = run_threaded_checkpointed(
            &spec,
            shards,
            cfg,
            None,
            10,
            1000,
            Arc::new(Recorder::disabled()),
            &pol,
        )
        .unwrap();
        assert_eq!(
            resumed.gen_params, full.gen_params,
            "threaded resume of a sequential checkpoint diverged"
        );

        let _ = std::fs::remove_file(&path);
    }

    /// A `DelayedEcho` attacker's recorded feedback crosses every resume:
    /// threaded → threaded, threaded → sequential and sequential →
    /// threaded all end on the uninterrupted generator.
    #[test]
    fn resume_keeps_a_delayed_echo_across_runtimes() {
        use crate::byzantine::Attack;
        let (spec, shards, mut cfg) = setup(3);
        cfg.attacks = vec![Attack::DelayedEcho];
        let path = temp_ckpt_path("echo");
        let _ = std::fs::remove_file(&path);
        let full = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);
        let resume = |iters: usize, every: usize| {
            let pol = ThreadedCheckpointing {
                path: path.clone(),
                every,
            };
            let (shards, cfg) = (shards.clone(), cfg.clone());
            let rec = Arc::new(Recorder::disabled());
            run_threaded_checkpointed(&spec, shards, cfg, None, iters, 1000, rec, &pol).unwrap()
        };

        resume(8, 4);
        let ck = Checkpoint::load(&path).unwrap();
        assert!(
            ck.get("echo_1").is_some(),
            "the threaded gather dropped the echo"
        );
        assert_eq!(resume(10, 0).gen_params, full.gen_params, "threaded resume");
        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards.clone(), cfg.clone());
        seq.restore(&ck).unwrap();
        for _ in 8..10 {
            seq.step();
        }
        assert_eq!(seq.gen_params(), full.gen_params, "sequential resume");

        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards.clone(), cfg.clone());
        for _ in 0..6 {
            seq.step();
        }
        seq.checkpoint().save_atomic(&path).unwrap();
        assert_eq!(
            resume(10, 0).gen_params,
            full.gen_params,
            "threaded from sequential"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn robust_mode_rejects_checkpointing() {
        let (spec, shards, mut cfg) = setup(2);
        cfg.robust.enabled = true;
        let pol = ThreadedCheckpointing {
            path: std::env::temp_dir().join("mdgan-threaded-never-written.ckpt"),
            every: 4,
        };
        let err = run_threaded_checkpointed(
            &spec,
            shards,
            cfg,
            None,
            2,
            1000,
            Arc::new(Recorder::disabled()),
            &pol,
        );
        assert!(matches!(err, Err(TrainError::Checkpoint(_))));
    }

    #[test]
    fn threaded_elastic_churn_equals_sequential_bit_for_bit() {
        use md_simnet::{ChurnEvent, ChurnKind, ChurnPlan};
        let workers = 3;
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
        let churn = ChurnPlan::from_events(workers, events).unwrap();
        let total = churn.max_workers(workers);
        let data = mnist_like(12, total * 24, 1, 0.08);
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
            iterations: 10,
            seed: 7,
            crash: CrashSchedule::none(),
            churn,
            ..MdGanConfig::default()
        };
        let res = run_threaded(&spec, shards.clone(), cfg.clone(), None, 10, 1000);
        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards, cfg);
        for _ in 0..10 {
            seq.step();
        }
        assert_eq!(
            res.gen_params,
            seq.gen_params(),
            "elastic runtimes diverged"
        );
        assert_eq!(res.traffic.class_bytes, seq.traffic().class_bytes);
        assert_eq!(res.alive, seq.alive_workers());
    }

    #[test]
    fn robust_mode_tolerates_total_feedback_loss() {
        // 100% drop: no batch, feedback or swapped discriminator ever
        // arrives. The generator stays untouched, the swap at iteration 5
        // is lost on the wire both ways, and both runtimes agree on all of
        // it.
        let (spec, shards, mut cfg) = setup(2);
        cfg.fault = FaultPlan::lossy(5, 1.0);
        cfg.robust.retries = 0;
        // Nobody is suspected, so both workers stay swap partners.
        cfg.robust.suspect_after = 100;
        let timeouts = |rec: &Recorder| -> Vec<usize> {
            let value = |e: &md_telemetry::TimedEvent| match e.event {
                Event::Custom {
                    name: "swap_timeout",
                    value,
                } => Some(value as usize),
                _ => None,
            };
            let mut ids: Vec<usize> = rec.events().iter().filter_map(value).collect();
            ids.sort_unstable();
            ids
        };

        let thr_rec = Arc::new(Recorder::enabled());
        let thr = run_threaded_with(
            &spec,
            shards.clone(),
            cfg.clone(),
            None,
            6,
            1000,
            Arc::clone(&thr_rec),
        );
        let seq_rec = Arc::new(Recorder::enabled());
        let mut seq = crate::mdgan::trainer::MdGan::new(&spec, shards, cfg)
            .with_telemetry(Arc::clone(&seq_rec));
        for _ in 0..6 {
            seq.step();
        }

        assert_eq!(seq.swaps(), 1);
        assert_eq!(thr.gen_params, seq.gen_params());
        // The whole report agrees once the threaded runtime's zero-byte
        // control messages are set aside: a SwapTo and a Stop per worker.
        let mut traffic = thr.traffic.clone();
        traffic.class_msgs[0] -= 2 * 2;
        assert_eq!(traffic, seq.traffic());
        assert!(traffic.dropped_msgs > 0);
        assert_eq!(traffic.bytes_delivered(), 0);
        assert_eq!(timeouts(&thr_rec), vec![1, 2]);
        assert_eq!(timeouts(&seq_rec), timeouts(&thr_rec));
    }
}
