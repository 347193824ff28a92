//! Thread-per-node MD-GAN runtime over `md-simnet`.
//!
//! Every worker runs on its own OS thread and communicates with the server
//! exclusively through routed messages; the discriminator swap travels
//! directly worker-to-worker. Given the same [`MdGanConfig`] and shards,
//! this runtime produces **bit-for-bit** the same generator as the
//! sequential [`MdGan`](crate::mdgan::trainer::MdGan): RNG streams are
//! forked identically and the server sorts feedbacks by worker id before
//! merging (an integration test asserts the equivalence).
//!
//! With an active [`FaultPlan`](md_simnet::FaultPlan) (or
//! `cfg.robust.enabled`) the runtime switches to the **robust** path:
//! data messages go through the seeded fault layer with bounded retry,
//! the server gathers feedbacks with a deadline and proceeds on a quorum,
//! worker liveness is inferred from missed deadlines (no crash oracle —
//! injected crashes are silent), and discriminator swaps are routed around
//! suspected peers. Fates are drawn per logical message from the plan's
//! seed, so the robust path too is bit-for-bit equivalent to the
//! sequential trainer running the same plan.

use crate::arch::ArchSpec;
use crate::byzantine::{resolve_attacks, Attack, AttackState};
use crate::checkpoint::Checkpoint;
use crate::config::MdGanConfig;
use crate::defense::FeedbackForensics;
use crate::error::TrainError;
use crate::eval::{Evaluator, ScoreTimeline};
use crate::mdgan::server::MdServer;
use crate::mdgan::trainer::{build_parts, swap_permutation};
use crate::mdgan::worker::MdWorker;
use crate::mdgan::MdMsg;
use md_data::Dataset;
use md_nn::optim::AdamState;
use md_nn::param::{batch_bytes, param_bytes};
use md_simnet::{
    ChurnKind, ChurnPlan, Endpoint, FailureDetector, Liveness, Membership, Router, TrafficReport,
    TrafficStats, SERVER,
};
use md_telemetry::{Event, Phase, Recorder, TraceCtx, Track};
use md_tensor::rng::Rng64;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Robust-mode knobs a worker thread needs.
#[derive(Clone, Copy)]
struct WorkerRobust {
    swap_timeout: Duration,
    retries: u32,
}

/// Worker-thread body: serve batch/swap/stop requests until stopped.
///
/// Messages that arrive while the worker is blocked waiting for its swap
/// counterpart (the next iteration's `Batches` can already be queued — the
/// server does not wait for swaps to finish) are buffered and processed in
/// order afterwards.
///
/// In robust mode (`robust` is `Some`) the swap wait is deadline-bounded
/// (on timeout the worker keeps its old discriminator), feedbacks and
/// discriminators go through the fault layer, and a `Crash` message puts
/// the worker into a silent drain loop so its death is only observable via
/// missed deadlines.
fn worker_loop(
    mut worker: MdWorker,
    ep: Endpoint<MdMsg>,
    telemetry: Arc<Recorder>,
    robust: Option<WorkerRobust>,
    mut attack: AttackState,
) {
    use std::collections::VecDeque;
    // A swap counterpart's parameters may arrive before our own SwapTo.
    let mut pending_disc: Option<Vec<f32>> = None;
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
                // Parent the compute span on the server's downlink send so
                // the trace shows batch → feedback causality; the uplink
                // send then chains off the compute span.
                let fb_span = telemetry.span_at(
                    Phase::DFeedback,
                    Track::Worker(ep.id() as u32),
                    ctx,
                    iter as u64,
                );
                let fctx = fb_span.ctx();
                let grad = worker.process(&xd, &xd_labels, &xg, &xg_labels);
                // A byzantine worker manipulates its feedback before the
                // send — the same per-worker attack stream the sequential
                // runtime draws, so both stay bit-identical.
                let grad = attack.apply(&mut worker, grad, &xg, &xg_labels);
                drop(fb_span);
                telemetry.worker_feedback(ep.id());
                let bytes = (grad.len() * 4) as u64;
                let retries = robust.map_or(0, |r| r.retries);
                ep.send_data_ctx(
                    SERVER,
                    MdMsg::Feedback { iter, g_id, grad },
                    bytes,
                    iter as u64,
                    retries,
                    fctx,
                );
            }
            MdMsg::SwapTo { to, iter } => {
                let params = worker.disc_params();
                let bytes = param_bytes(params.len());
                let retries = robust.map_or(0, |r| r.retries);
                ep.send_data_ctx(to, MdMsg::Disc { params }, bytes, iter as u64, retries, ctx);
                let incoming = match pending_disc.take() {
                    Some(p) => Some(p),
                    None => match robust {
                        // Oracle mode: the counterpart always answers.
                        None => loop {
                            let e = ep.recv();
                            match e.msg {
                                MdMsg::Disc { params } => break Some(params),
                                other => buffered.push_back((other, e.ctx)),
                            }
                        },
                        // Robust mode: the counterpart may be dead or its
                        // parameters lost — wait at most swap_timeout.
                        Some(rb) => {
                            let deadline = Instant::now() + rb.swap_timeout;
                            loop {
                                let left = deadline.saturating_duration_since(Instant::now());
                                match ep.recv_deadline(left) {
                                    Some(env) => match env.msg {
                                        MdMsg::Disc { params } => break Some(params),
                                        other => buffered.push_back((other, env.ctx)),
                                    },
                                    None => break None,
                                }
                            }
                        }
                    },
                };
                match incoming {
                    Some(params) => {
                        worker.set_disc_params(&params);
                        telemetry.worker_swap_in(ep.id());
                    }
                    // Timed out: keep the current discriminator.
                    None => telemetry.event(Event::Custom {
                        name: "swap_timeout",
                        value: ep.id() as f64,
                    }),
                }
            }
            MdMsg::Disc { params } => {
                assert!(
                    pending_disc.is_none(),
                    "worker {} received two swap payloads",
                    ep.id()
                );
                pending_disc = Some(params);
            }
            MdMsg::DiscPull { iter } => {
                // Bootstrap-on-join: ship the snapshot to the server at
                // full parameter cost (this is real simulated traffic,
                // unlike the zero-byte StateRequest control path).
                let params = worker.disc_params();
                let bytes = param_bytes(params.len());
                let retries = robust.map_or(0, |r| r.retries);
                ep.send_data_ctx(
                    SERVER,
                    MdMsg::Disc { params },
                    bytes,
                    iter as u64,
                    retries,
                    ctx,
                );
            }
            MdMsg::Bootstrap { blob } => {
                let disc = crate::mdgan::bootstrap_disc(&blob)
                    .expect("server-built bootstrap blob decodes");
                worker.set_disc_params(&disc);
            }
            MdMsg::StateRequest => {
                let opt = worker.opt_state();
                ep.send(
                    SERVER,
                    MdMsg::WorkerState {
                        id: ep.id(),
                        disc: worker.disc_params(),
                        adam_t: opt.t,
                        opt_m: opt.m,
                        opt_v: opt.v,
                        sampler: worker.sampler_state_words().to_vec(),
                    },
                    0,
                )
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
/// Mirrors [`MdGan::train`](crate::mdgan::trainer::MdGan::train): trains for
/// `iters` global iterations, scoring every `eval_every` when an evaluator
/// is supplied.
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
    let object_size = shards[0].object_size();
    let shard_size = shards[0].len();
    let churned = !cfg.churn.is_none();
    if churned {
        ChurnPlan::from_events(cfg.workers, cfg.churn.events().to_vec())
            .expect("invalid churn plan");
    }
    let total = cfg.total_workers();
    let (mut server, workers, mut swap_rng) = build_parts(spec, shards, &cfg);
    let k = cfg.k.resolve(cfg.workers);
    let swap_interval = cfg.swap_interval(shard_size);
    let b = cfg.hyper.batch;
    let robust = cfg.is_robust();
    if robust && ckpt.is_some() {
        return Err(TrainError::Checkpoint(
            "robust-mode threaded runs cannot checkpoint/resume: \
             detector and fault-RNG state is not captured"
                .into(),
        ));
    }
    if churned && ckpt.is_some() {
        return Err(TrainError::Checkpoint(
            "elastic threaded runs cannot checkpoint/resume: \
             the membership gather is not implemented"
                .into(),
        ));
    }
    assert!(
        !robust
            || cfg
                .churn
                .events()
                .iter()
                .all(|e| e.kind == ChurnKind::Crash),
        "robust mode supports crash-only churn plans (joins and leaves need the oracle path)"
    );

    let mut router: Router<MdMsg> = Router::new(total).with_telemetry(Arc::clone(&telemetry));
    if robust {
        router = router.with_faults(cfg.fault.clone());
    }
    let stats = router.stats();
    let server_ep = router.endpoint(SERVER);
    let worker_eps: Vec<Endpoint<MdMsg>> = (1..=total).map(|i| router.endpoint(i)).collect();

    // Mirrors of the sequential runtime's attack/host RNG streams. The
    // threaded runtime never draws from them, but carrying them keeps the
    // checkpoint layout identical to `MdGan::checkpoint`, so either
    // runtime can resume the other's files.
    let mut attack_rng = Rng64::seed_from_u64(cfg.seed ^ 0xA77AC4);
    let mut host_rng = Rng64::seed_from_u64(cfg.seed ^ 0x4057);

    let mut workers: Vec<Option<MdWorker>> = workers.into_iter().map(Some).collect();
    // Attack states snapshot the workers' *initial* discriminators (the
    // pre-trained-mimicry strategy), exactly like `MdGan::new` does.
    let attacks = resolve_attacks(&cfg.attacks, total);
    let attack_states: Vec<Option<AttackState>> = workers
        .iter()
        .enumerate()
        .map(|(wi, w)| {
            w.as_ref().map(|worker| {
                let snap =
                    matches!(attacks[wi], Attack::PretrainedMimic).then(|| worker.disc_params());
                AttackState::new(attacks[wi], cfg.seed, wi, snap)
            })
        })
        .collect();
    let mut start_iter = 0usize;
    let mut swaps = 0usize;
    if let Some(pol) = ckpt {
        if pol.path.exists() {
            let ck = Checkpoint::load(&pol.path)?;
            restore_parts(
                &ck,
                &mut server,
                &mut workers,
                &mut swap_rng,
                &mut attack_rng,
                &mut host_rng,
                &stats,
                &mut swaps,
            )?;
            start_iter = ck.iteration as usize;
            telemetry.event(Event::Resumed { iter: start_iter });
        }
    }

    let mut timeline = ScoreTimeline::new();
    let mut alive_mask: Vec<bool> = workers.iter().map(|w| w.is_some()).collect();
    let spawned: Vec<bool> = alive_mask.clone();
    // Pending joiners are spawned up front but kept out of the view until
    // their join event fires; the membership is the source of truth.
    let mut membership = Membership::new(cfg.workers, total);
    let mut detector = FailureDetector::new(cfg.workers, cfg.robust.suspect_after)
        .expect("suspect_after must be at least 1")
        .with_eviction(cfg.robust.evict_after);
    let gather_timeout = Duration::from_millis(cfg.robust.gather_timeout_ms);
    let worker_robust = robust.then_some(WorkerRobust {
        swap_timeout: Duration::from_millis(cfg.robust.swap_timeout_ms),
        retries: cfg.robust.retries,
    });
    let defense_on = cfg.defense.enabled;
    let mut forensics = FeedbackForensics::new(cfg.defense, total);
    let mut ckpt_err: Option<TrainError> = None;

    crossbeam::thread::scope(|scope| {
        for ((slot, ep), atk) in workers.into_iter().zip(worker_eps).zip(attack_states) {
            let Some(worker) = slot else { continue };
            let attack = atk.expect("alive worker slot has an attack state");
            let telemetry = Arc::clone(&telemetry);
            scope.spawn(move |_| worker_loop(worker, ep, telemetry, worker_robust, attack));
        }

        if start_iter == 0 {
            if let Some(ev) = evaluator.as_deref_mut() {
                let span = telemetry.span(Phase::Eval);
                let s = ev.evaluate(&mut server.gen);
                drop(span);
                telemetry.event(Event::EvalDone {
                    iter: 0,
                    is_score: s.inception_score,
                    fid: s.fid,
                });
                timeline.push(0, s);
            }
        }

        for i in start_iter..iters {
            // Root one trace per global iteration; every span and message
            // the iteration causes links back to it (DESIGN.md §12).
            let tick = i as u64;
            let root = telemetry.trace_root(tick);
            let rctx = root.ctx();
            // Fail-stop crashes: the thread leaves the computation and its
            // shard is gone. Oracle mode stops the thread outright; robust
            // mode crashes it *silently* — the server must notice on its
            // own through missed deadlines.
            for (w, alive) in alive_mask.iter_mut().enumerate() {
                if *alive && cfg.crash.is_crashed(w + 1, i) {
                    *alive = false;
                    membership.crash(w);
                    telemetry.event(Event::WorkerFault {
                        iter: i,
                        worker: w + 1,
                    });
                    let fate = if robust { MdMsg::Crash } else { MdMsg::Stop };
                    server_ep
                        .send(w + 1, fate, 0)
                        .expect("destination endpoint dropped");
                }
            }
            // Churn-plan crashes and joins fire at the start of the
            // iteration, mirroring the sequential trainer exactly (same
            // events, same bootstrap byte charges). Graceful leaves drain
            // through the iteration and depart at the end.
            if churned {
                let evs: Vec<md_simnet::ChurnEvent> = cfg.churn.events_at(i).copied().collect();
                for ev in &evs {
                    let slot = ev.worker - 1;
                    match ev.kind {
                        ChurnKind::Crash => {
                            if membership.apply(ev).is_ok() {
                                alive_mask[slot] = false;
                                telemetry.event(Event::WorkerFault {
                                    iter: i,
                                    worker: ev.worker,
                                });
                                let fate = if robust { MdMsg::Crash } else { MdMsg::Stop };
                                server_ep
                                    .send(ev.worker, fate, 0)
                                    .expect("destination endpoint dropped");
                            }
                        }
                        ChurnKind::Join => {
                            membership.apply(ev).expect("validated churn plan");
                            telemetry.event(Event::WorkerJoined {
                                iter: i,
                                worker: ev.worker,
                            });
                            // Bootstrap from the lowest-id alive worker:
                            // pull its snapshot (charged W→C), wrap it in a
                            // checkpoint-v2 blob, forward it to the joiner
                            // (charged C→W at blob size).
                            let src = membership
                                .alive()
                                .into_iter()
                                .find(|&s| s != slot && alive_mask[s]);
                            if let Some(src) = src {
                                server_ep
                                    .send_ctx(src + 1, MdMsg::DiscPull { iter: i }, 0, rctx)
                                    .expect("destination endpoint dropped");
                                let params = match server_ep.recv().msg {
                                    MdMsg::Disc { params } => params,
                                    other => {
                                        panic!("server expected a bootstrap Disc, got {other:?}")
                                    }
                                };
                                let blob = crate::mdgan::bootstrap_blob(i as u64, &params);
                                let blob_len = blob.len() as u64;
                                server_ep
                                    .send_ctx(ev.worker, MdMsg::Bootstrap { blob }, blob_len, rctx)
                                    .expect("destination endpoint dropped");
                                telemetry.event(Event::BootstrapDone {
                                    iter: i,
                                    worker: ev.worker,
                                    bytes: blob_len,
                                });
                            }
                        }
                        ChurnKind::Leave => {}
                    }
                }
            }

            let alive_now;
            if robust {
                // The server has no oracle: it talks to every worker it
                // does not currently suspect (plus, on probe rounds, the
                // suspected ones, so false suspects can rejoin).
                let probe = cfg.robust.probe_period > 0
                    && i.checked_rem(cfg.robust.probe_period) == Some(0);
                let expected: Vec<usize> = (0..total)
                    .filter(|&w| !detector.is_evicted(w) && (!detector.is_suspected(w) || probe))
                    .collect();
                let mut heard_count = 0;
                if !expected.is_empty() {
                    let gen_span = telemetry.span_at(Phase::GenForward, Track::Server, rctx, tick);
                    let batches = server.generate_batches(k);
                    drop(gen_span);
                    for &wi in &expected {
                        let (g_id, d_id) = MdServer::assign(wi, k);
                        server_ep.send_data_ctx(
                            wi + 1,
                            MdMsg::Batches {
                                iter: i,
                                g_id,
                                xg: batches[g_id].0.clone(),
                                xg_labels: batches[g_id].1.clone(),
                                xd: batches[d_id].0.clone(),
                                xd_labels: batches[d_id].1.clone(),
                            },
                            2 * batch_bytes(b, object_size),
                            i as u64,
                            cfg.robust.retries,
                            rctx,
                        );
                    }
                    let expected_ids: Vec<usize> = expected.iter().map(|&w| w + 1).collect();
                    let quorum = cfg.robust.quorum(expected_ids.len());
                    let gather = server_ep.recv_until_quorum(
                        &expected_ids,
                        quorum,
                        gather_timeout,
                        |e| matches!(&e.msg, MdMsg::Feedback { iter, .. } if *iter == i),
                    );
                    // Envelopes arrive sorted by sender, so the forensics
                    // observes the exact triples the sequential trainer
                    // builds (ascending worker slot).
                    let feedbacks: Vec<(usize, usize, md_tensor::Tensor)> = gather
                        .envelopes
                        .into_iter()
                        .map(|e| match e.msg {
                            MdMsg::Feedback { g_id, grad, .. } => (e.from - 1, g_id, grad),
                            other => panic!("server expected Feedback, got {other:?}"),
                        })
                        .collect();
                    let mut quarantined: Vec<bool> = vec![false; feedbacks.len()];
                    if defense_on {
                        let items: Vec<(usize, usize, &md_tensor::Tensor)> = feedbacks
                            .iter()
                            .map(|(wi, g_id, f)| (*wi, *g_id, f))
                            .collect();
                        let verdicts = forensics.observe(&items);
                        for (n, v) in verdicts.iter().enumerate() {
                            quarantined[n] = v.quarantined;
                            if v.newly_flagged {
                                telemetry.event(Event::WorkerFlagged {
                                    iter: i,
                                    worker: v.worker + 1,
                                    norm_score: f64::from(v.norm_score),
                                    self_cos: f64::from(v.self_cos),
                                    peer_cos: f64::from(v.peer_cos),
                                });
                            }
                            if v.cleared {
                                telemetry.event(Event::WorkerCleared {
                                    iter: i,
                                    worker: v.worker + 1,
                                });
                            }
                        }
                    }
                    for &wi in &expected {
                        let flagged = defense_on && forensics.is_flagged(wi);
                        if gather.heard.contains(&(wi + 1)) && !flagged {
                            if detector.heard(wi) == Liveness::Rejoined {
                                telemetry.event(Event::WorkerRejoined {
                                    iter: i,
                                    worker: wi + 1,
                                });
                            }
                        } else {
                            match detector.missed(wi) {
                                Liveness::Suspected => {
                                    telemetry.event(Event::WorkerSuspected {
                                        iter: i,
                                        worker: wi + 1,
                                    });
                                }
                                Liveness::Evicted => {
                                    membership.evict(wi);
                                    stats.retire(wi + 1);
                                    forensics.retire(wi);
                                    if flagged {
                                        telemetry.event(Event::FreeriderEvicted {
                                            iter: i,
                                            worker: wi + 1,
                                        });
                                    }
                                    telemetry.event(Event::WorkerEvicted {
                                        iter: i,
                                        worker: wi + 1,
                                    });
                                }
                                _ => {}
                            }
                        }
                    }
                    heard_count = gather.heard.len();
                    let kept: Vec<(usize, md_tensor::Tensor)> = feedbacks
                        .into_iter()
                        .zip(quarantined.iter())
                        .filter(|(_, &q)| !q)
                        .map(|((_, g_id, f), _)| (g_id, f))
                        .collect();
                    if gather.met_quorum && heard_count > 0 && !kept.is_empty() {
                        let upd_span = telemetry.span_at(Phase::GUpdate, Track::Server, rctx, tick);
                        server.apply_feedbacks_robust(&kept, kept.len(), cfg.aggregation);
                        drop(upd_span);
                    } else if heard_count > 0 {
                        telemetry.event(Event::Custom {
                            name: "quorum_missed",
                            value: i as f64,
                        });
                    }

                    if (i + 1) % swap_interval == 0 {
                        let swap_span = telemetry.span_at(Phase::Swap, Track::Server, rctx, tick);
                        let sctx = swap_span.ctx();
                        // Swaps are routed around suspected peers.
                        let candidates: Vec<usize> =
                            (0..total).filter(|&w| !detector.is_suspected(w)).collect();
                        if let Some(perm) =
                            swap_permutation(cfg.swap, candidates.len(), &mut swap_rng)
                        {
                            for (j, &src) in candidates.iter().enumerate() {
                                let dst = candidates[perm[j]];
                                server_ep
                                    .send_ctx(
                                        src + 1,
                                        MdMsg::SwapTo {
                                            to: dst + 1,
                                            iter: i,
                                        },
                                        0,
                                        sctx,
                                    )
                                    .expect("destination endpoint dropped");
                            }
                            swaps += 1;
                            telemetry.event(Event::SwapDone {
                                iter: i,
                                moved: candidates.len(),
                            });
                        }
                        drop(swap_span);
                    }
                }
                alive_now = heard_count;
            } else {
                let alive: Vec<usize> = (0..total)
                    .filter(|&w| alive_mask[w] && membership.is_alive(w))
                    .collect();
                if !alive.is_empty() {
                    // With churn the k-batch SPLIT re-resolves over the
                    // current view; without it the construction-time k is
                    // kept (bit-identical to the pre-elastic behavior).
                    let k_now = if churned {
                        cfg.k.resolve(alive.len())
                    } else {
                        k
                    };
                    let gen_span = telemetry.span_at(Phase::GenForward, Track::Server, rctx, tick);
                    let batches = server.generate_batches(k_now);
                    drop(gen_span);
                    for (pos, &wi) in alive.iter().enumerate() {
                        let (g_id, d_id) = if churned {
                            MdServer::assign(pos, k_now)
                        } else {
                            MdServer::assign(wi, k)
                        };
                        server_ep
                            .send_ctx(
                                wi + 1,
                                MdMsg::Batches {
                                    iter: i,
                                    g_id,
                                    xg: batches[g_id].0.clone(),
                                    xg_labels: batches[g_id].1.clone(),
                                    xd: batches[d_id].0.clone(),
                                    xd_labels: batches[d_id].1.clone(),
                                },
                                2 * batch_bytes(b, object_size),
                                rctx,
                            )
                            .expect("destination endpoint dropped");
                    }
                    let envs = server_ep.recv_n_sorted(alive.len());
                    let feedbacks: Vec<(usize, md_tensor::Tensor)> = envs
                        .into_iter()
                        .map(|e| match e.msg {
                            MdMsg::Feedback { g_id, grad, .. } => (g_id, grad),
                            other => panic!("server expected Feedback, got {other:?}"),
                        })
                        .collect();
                    let upd_span = telemetry.span_at(Phase::GUpdate, Track::Server, rctx, tick);
                    server.apply_feedbacks_robust(&feedbacks, alive.len(), cfg.aggregation);
                    drop(upd_span);

                    if (i + 1) % swap_interval == 0 {
                        let swap_span = telemetry.span_at(Phase::Swap, Track::Server, rctx, tick);
                        let sctx = swap_span.ctx();
                        if let Some(perm) = swap_permutation(cfg.swap, alive.len(), &mut swap_rng) {
                            for (j, &src) in alive.iter().enumerate() {
                                let dst = alive[perm[j]];
                                server_ep
                                    .send_ctx(
                                        src + 1,
                                        MdMsg::SwapTo {
                                            to: dst + 1,
                                            iter: i,
                                        },
                                        0,
                                        sctx,
                                    )
                                    .expect("destination endpoint dropped");
                            }
                            swaps += 1;
                            telemetry.event(Event::SwapDone {
                                iter: i,
                                moved: alive.len(),
                            });
                        }
                        drop(swap_span);
                    }
                }
                // Graceful leaves depart at the end of the iteration: the
                // leaver already drained its batches, sent its final
                // feedback and took part in any swap above.
                if churned {
                    let evs: Vec<md_simnet::ChurnEvent> = cfg.churn.events_at(i).copied().collect();
                    for ev in evs.iter().filter(|e| e.kind == ChurnKind::Leave) {
                        if membership.apply(ev).is_ok() {
                            let slot = ev.worker - 1;
                            alive_mask[slot] = false;
                            server_ep
                                .send(ev.worker, MdMsg::Stop, 0)
                                .expect("destination endpoint dropped");
                            stats.retire(ev.worker);
                            telemetry.event(Event::WorkerLeft {
                                iter: i,
                                worker: ev.worker,
                            });
                        }
                    }
                }
                alive_now = alive.len();
            }
            telemetry.event(Event::IterDone {
                iter: i,
                alive: alive_now,
            });
            drop(root);

            if let Some(ev) = evaluator.as_deref_mut() {
                if (i + 1) % eval_every.max(1) == 0 || i + 1 == iters {
                    let span = telemetry.span(Phase::Eval);
                    let s = ev.evaluate(&mut server.gen);
                    drop(span);
                    telemetry.event(Event::EvalDone {
                        iter: i + 1,
                        is_score: s.inception_score,
                        fid: s.fid,
                    });
                    timeline.push(i + 1, s);
                }
            }

            if let Some(pol) = ckpt {
                if pol.every > 0 && (i + 1) % pol.every == 0 {
                    let ck = gather_checkpoint(
                        &server_ep,
                        &server,
                        &alive_mask,
                        &swap_rng,
                        &attack_rng,
                        &host_rng,
                        &stats,
                        swaps,
                        (i + 1) as u64,
                    );
                    match ck.save_atomic(&pol.path) {
                        Ok(()) => telemetry.event(Event::CheckpointWritten {
                            iter: i + 1,
                            bytes: ck.byte_size() as u64,
                        }),
                        Err(e) => {
                            ckpt_err = Some(TrainError::Io(e));
                            break;
                        }
                    }
                }
            }
        }

        // Shut everyone down. Robust mode keeps crashed workers draining
        // their queue, so they too need the final Stop. Workers dead at
        // resume time were never spawned (their endpoint is gone).
        for (w, &alive) in alive_mask.iter().enumerate() {
            if spawned[w] && (robust || alive) {
                server_ep
                    .send(w + 1, MdMsg::Stop, 0)
                    .expect("destination endpoint dropped");
            }
        }
    })
    .expect("worker thread panicked");

    if let Some(e) = ckpt_err {
        return Err(e);
    }
    Ok(ThreadedResult {
        timeline,
        gen_params: server.gen_params(),
        traffic: stats.report(),
        alive: (0..total)
            .filter(|&w| alive_mask[w] && membership.is_alive(w))
            .map(|w| w + 1)
            .collect(),
    })
}

/// Collects the full training state into a checkpoint with exactly the
/// sequential runtime's section layout ([`MdGan::checkpoint`]).
///
/// The server requests each alive worker's state over the normal message
/// channels (`StateRequest`/`WorkerState`) — replies arrive only after the
/// worker has drained everything queued before the request (feedbacks,
/// in-progress swaps), so the gathered state is the post-iteration
/// barrier state. The gather's own zero-byte control messages are then
/// stripped from the traffic counters: checkpoint persistence must not
/// perturb traffic accounting, or a resumed run would stop being
/// bit-identical to an uninterrupted one.
///
/// [`MdGan::checkpoint`]: crate::mdgan::trainer::MdGan::checkpoint
#[allow(clippy::too_many_arguments)]
fn gather_checkpoint(
    server_ep: &Endpoint<MdMsg>,
    server: &MdServer,
    alive_mask: &[bool],
    swap_rng: &Rng64,
    attack_rng: &Rng64,
    host_rng: &Rng64,
    stats: &TrafficStats,
    swaps: usize,
    iteration: u64,
) -> Checkpoint {
    let n = alive_mask.len();
    let expect: Vec<usize> = (0..n).filter(|&w| alive_mask[w]).map(|w| w + 1).collect();
    for &id in &expect {
        server_ep
            .send(id, MdMsg::StateRequest, 0)
            .expect("destination endpoint dropped");
    }
    let mut states = Vec::with_capacity(expect.len());
    for _ in 0..expect.len() {
        match server_ep.recv().msg {
            MdMsg::WorkerState {
                id,
                disc,
                adam_t,
                opt_m,
                opt_v,
                sampler,
            } => states.push((id, disc, adam_t, opt_m, opt_v, sampler)),
            other => panic!("server expected WorkerState, got {other:?}"),
        }
    }
    states.sort_by_key(|s| s.0);

    // Every node is quiescent now (workers answered and are blocked on
    // their queue), so this snapshot races with nothing. Strip the
    // gather's own 2×|alive| zero-byte control messages from the message
    // counters, both in the snapshot and in the live stats.
    let mut traffic = stats.state_words();
    let nodes = traffic[0] as usize;
    let msgs_base = 1 + 2 * nodes + 3;
    traffic[msgs_base] -= expect.len() as u64; // server→worker StateRequest
    traffic[msgs_base + 1] -= expect.len() as u64; // worker→server WorkerState
    stats
        .load_state_words(&traffic)
        .expect("snapshot from the same instance always loads");

    let mut ck = Checkpoint::new(iteration);
    ck.push("generator", server.gen_params());
    let g_opt = server.opt_state();
    ck.push("opt_g_m", g_opt.m);
    ck.push("opt_g_v", g_opt.v);
    let mut adam_t = vec![0u64; 1 + n];
    adam_t[0] = g_opt.t;
    ck.push_u64("rng_server", server.rng_state_words().to_vec());
    ck.push_u64("rng_swap", swap_rng.state_words().to_vec());
    ck.push_u64("rng_attack", attack_rng.state_words().to_vec());
    ck.push_u64("rng_host", host_rng.state_words().to_vec());
    for (id, disc, t, m, v, sampler) in states {
        ck.push(format!("disc_{id}"), disc);
        adam_t[id] = t;
        ck.push(format!("opt_d_{id}_m"), m);
        ck.push(format!("opt_d_{id}_v"), v);
        ck.push_u64(format!("rng_sampler_{id}"), sampler);
    }
    ck.push_u64("adam_t", adam_t);
    ck.push_u64(
        "alive",
        alive_mask.iter().map(|&a| u64::from(a)).collect::<Vec<_>>(),
    );
    ck.push_u64("counters", vec![swaps as u64]);
    ck.push_u64("traffic", traffic);
    ck
}

/// Restores a checkpoint into the not-yet-spawned parts of a threaded run.
///
/// Mirrors [`MdGan::restore`](crate::mdgan::trainer::MdGan::restore):
/// full (v2) checkpoints restore everything for a bit-identical replay;
/// legacy parameter-only checkpoints restore parameters and treat workers
/// without a `disc_n` section as crashed. Checkpoints from a sequential
/// run using discriminator-count subsetting (`disc_hosts`) are rejected —
/// the threaded runtime does not implement that mode.
#[allow(clippy::too_many_arguments)]
fn restore_parts(
    ck: &Checkpoint,
    server: &mut MdServer,
    workers: &mut [Option<MdWorker>],
    swap_rng: &mut Rng64,
    attack_rng: &mut Rng64,
    host_rng: &mut Rng64,
    stats: &TrafficStats,
    swaps: &mut usize,
) -> Result<(), TrainError> {
    let ckerr = |e: std::io::Error| TrainError::Checkpoint(e.to_string());
    let n = workers.len();
    if ck.get_u64("disc_hosts").is_some() {
        return Err(TrainError::Checkpoint(
            "checkpoint uses discriminator-count subsetting, \
             which the threaded runtime does not support"
                .into(),
        ));
    }
    let gen = ck
        .require_len("generator", server.gen_params_len())
        .map_err(ckerr)?;
    server.set_gen_params(gen);

    if ck.get_u64("alive").is_none() {
        // Legacy parameter-only checkpoint: discriminators restore (or
        // the worker is treated as crashed), optimizer moments and RNG
        // streams restart fresh. The index names the 1-based section and
        // selects the worker slot.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            match ck.get(&format!("disc_{}", i + 1)) {
                Some(params) => {
                    if let Some(w) = workers[i].as_mut() {
                        if params.len() != w.disc_params_len() {
                            return Err(TrainError::Checkpoint(format!(
                                "disc_{} has {} params, worker expects {}",
                                i + 1,
                                params.len(),
                                w.disc_params_len()
                            )));
                        }
                        w.set_disc_params(params);
                    }
                }
                None => workers[i] = None,
            }
        }
        return Ok(());
    }

    let alive = ck.require_u64_len("alive", n).map_err(ckerr)?.to_vec();
    let adam_t = ck.require_u64_len("adam_t", 1 + n).map_err(ckerr)?.to_vec();
    let g_state = AdamState {
        t: adam_t[0],
        m: ck.require("opt_g_m").map_err(ckerr)?.to_vec(),
        v: ck.require("opt_g_v").map_err(ckerr)?.to_vec(),
    };
    server
        .import_opt_state(&g_state)
        .map_err(TrainError::Checkpoint)?;

    let words = |name: &str| -> Result<[u64; Rng64::STATE_WORDS], TrainError> {
        let w = ck
            .require_u64_len(name, Rng64::STATE_WORDS)
            .map_err(ckerr)?;
        Ok(std::array::from_fn(|i| w[i]))
    };
    server.set_rng_state_words(words("rng_server")?);
    *swap_rng = Rng64::from_state_words(words("rng_swap")?);
    *attack_rng = Rng64::from_state_words(words("rng_attack")?);
    *host_rng = Rng64::from_state_words(words("rng_host")?);

    for i in 0..n {
        let id = i + 1;
        if alive[i] == 0 {
            workers[i] = None;
            continue;
        }
        let Some(w) = workers[i].as_mut() else {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has worker {id} alive but it already crashed here"
            )));
        };
        let disc = ck
            .require_len(&format!("disc_{id}"), w.disc_params_len())
            .map_err(ckerr)?;
        w.set_disc_params(disc);
        let d_state = AdamState {
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
        w.import_opt_state(&d_state)
            .map_err(TrainError::Checkpoint)?;
        let sw = ck
            .require_u64_len(&format!("rng_sampler_{id}"), Rng64::STATE_WORDS)
            .map_err(ckerr)?;
        w.set_sampler_state_words(std::array::from_fn(|j| sw[j]));
    }

    let counters = ck.require_u64_len("counters", 1).map_err(ckerr)?;
    *swaps = counters[0] as usize;
    stats
        .load_state_words(ck.require_u64("traffic").map_err(ckerr)?)
        .map_err(TrainError::Checkpoint)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GanHyper, KPolicy, SwapPolicy};
    use md_data::synthetic::mnist_like;
    use md_simnet::{CrashSchedule, FaultPlan};
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

    /// Short timeouts keep fault tests fast; they stay far above the
    /// per-iteration compute time so deadlines never fire spuriously.
    fn fast_robust(cfg: &mut MdGanConfig) {
        cfg.robust.gather_timeout_ms = 400;
        cfg.robust.swap_timeout_ms = 150;
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
        fast_robust(&mut rcfg);
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
        fast_robust(&mut cfg);
        cfg.crash = CrashSchedule::new(vec![(3, 2)]);
        let rec = Arc::new(Recorder::enabled());
        let res = run_threaded_with(&spec, shards, cfg, None, 8, 1000, Arc::clone(&rec));
        assert!(res.gen_params.iter().all(|v| v.is_finite()));
        // Two missed deadlines (iterations 3 and 4) → suspected once.
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
        use md_simnet::{ChurnEvent, ChurnPlan};
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
        // 100% drop: no feedback ever arrives, the gather must return at
        // its deadline every iteration and the generator stays untouched.
        let (spec, shards, mut cfg) = setup(2);
        cfg.fault = FaultPlan::lossy(5, 1.0);
        cfg.robust.retries = 0;
        cfg.robust.gather_timeout_ms = 120;
        cfg.robust.swap_timeout_ms = 60;
        cfg.robust.suspect_after = 1;
        cfg.robust.probe_period = 2;
        let t0 = Instant::now();
        let res = run_threaded(&spec, shards, cfg, None, 4, 1000);
        // 4 iterations, each bounded by one gather deadline (plus probe
        // overhead) — nowhere near a hang.
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(res.gen_params.iter().all(|v| v.is_finite()));
        assert!(res.traffic.dropped_msgs > 0);
        assert_eq!(res.traffic.bytes_delivered(), 0);
    }
}
