//! Algorithm 1's server side, written once.
//!
//! A [`Coordinator`] owns everything the server decides with — the
//! generator, the swap schedule, the membership view, the failure detector
//! and the feedback forensics — and [`Coordinator::round`] is the one place
//! a global iteration is spelled: churn, who is addressed, SPLIT, the
//! exchange, the free-rider defense, quorum, the Adam step, the swap. How a
//! batch reaches a worker and a feedback comes back is a [`Cluster`]: the
//! sequential runtime's moves tensors in place
//! ([`InProcess`](super::trainer::InProcess)), the threaded runtime's sends
//! them through `md-simnet` endpoints ([`Routed`](super::threaded)).
//!
//! The steps a schedule other than the synchronous round reuses are free
//! functions here — [`arrivals`] and [`depart`] (crashes, joins, leaves),
//! [`verdicts`] and [`evict`] (the free-rider defense), [`permute`] (the
//! swap) — so the asynchronous runtime runs them over the same
//! `InProcess` instead of spelling them again.

use crate::arch::{build_slots, ArchSpec};
use crate::byzantine::{resolve_attacks, Attack, AttackState};
use crate::checkpoint::Checkpoint;
use crate::compression::Codec;
use crate::config::{MdGanConfig, SwapPolicy};
use crate::defense::{FeedbackForensics, Verdict};
use crate::error::{ckerr, TrainError};
use crate::mdgan::server::MdServer;
use crate::mdgan::worker::{push_workers, restore_workers, MdWorker, WorkerState};
use md_data::Dataset;
use md_nn::param::batch_bytes;
use md_simnet::{
    ChurnEvent, ChurnKind, ChurnPlan, CrashSchedule, FailureDetector, Liveness, MemberStatus,
    Membership, TrafficStats,
};
use md_telemetry::{Event, Phase, Recorder, TraceCtx, Track};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use std::sync::Arc;

/// Streams under the schedule's key (see [`build_parts`]): the swap
/// permutations, the §VII.4 host draws and the asynchronous runtime's
/// refills and reporter picks.
pub(crate) const SWAP_STREAM: u64 = 1;
const HOST_STREAM: u64 = 2;
pub(crate) const SCHED_STREAM: u64 = 3;

/// Builds the server, the workers and the key of the schedule's streams
/// (swaps, hosts, the async scheduler) from one master seed. Shared by
/// every runtime so all are bit-for-bit identical given the same config.
pub(crate) fn build_parts(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: &MdGanConfig,
) -> (MdServer, Vec<MdWorker>, u64) {
    // With an elastic plan the joiners' workers (and shards) are built up
    // front with their canonical RNG forks, so a joiner's fresh init is
    // bit-identical across runtimes regardless of when it joins.
    assert_eq!(
        shards.len(),
        cfg.total_workers(),
        "one shard per worker (including planned joiners) required"
    );
    assert!(cfg.workers > 0, "MD-GAN needs at least one worker");
    if !cfg.churn.is_none() {
        ChurnPlan::from_events(cfg.workers, cfg.churn.events().to_vec())
            .expect("invalid churn plan");
    }
    let mut master = Rng64::seed_from_u64(cfg.seed);
    let mut srv_rng = master.fork(0);
    let server = MdServer::new(spec, cfg.hyper, &mut srv_rng);
    let workers = build_slots(shards, &mut master, |i, shard, rng| {
        MdWorker::new(i + 1, spec, shard, cfg.hyper, rng)
    });
    (server, workers, master.next_u64())
}

/// One [`AttackState`] per worker slot, from `cfg.attacks`. Call before
/// training starts: pre-trained-mimicry attackers freeze the worker's
/// *initial* discriminator here.
pub(crate) fn attack_states(cfg: &MdGanConfig, workers: &[MdWorker]) -> Vec<AttackState> {
    resolve_attacks(&cfg.attacks, workers.len())
        .into_iter()
        .zip(workers)
        .enumerate()
        .map(|(wi, (a, w))| {
            let snap = matches!(a, Attack::PretrainedMimic).then(|| w.disc_params());
            AttackState::new(a, cfg.seed, wi, snap)
        })
        .collect()
}

/// Computes the swap permutation over `n_alive` workers.
pub(crate) fn swap_permutation(
    policy: SwapPolicy,
    n_alive: usize,
    rng: &mut Rng64,
) -> Option<Vec<usize>> {
    if n_alive < 2 {
        return None;
    }
    match policy {
        SwapPolicy::Disabled => None,
        SwapPolicy::Derangement => Some(rng.derangement(n_alive)),
        SwapPolicy::Ring => Some((0..n_alive).map(|j| (j + 1) % n_alive).collect()),
    }
}

/// Swaps the discriminators of the workers `among` along a fresh `policy`
/// permutation (Algorithm 1 line 11); returns how many moved, or `None`
/// when there is nothing to swap.
pub(crate) fn permute(
    cluster: &mut impl Cluster,
    among: &[usize],
    policy: SwapPolicy,
    rng: &mut Rng64,
    call: &Call,
) -> Option<usize> {
    let perm = swap_permutation(policy, among.len(), rng)?;
    let pairs: Vec<(usize, usize)> = among
        .iter()
        .zip(&perm)
        .map(|(&src, &j)| (src, among[j]))
        .collect();
    cluster.swap(call, &pairs);
    Some(among.len())
}

/// Slots (0-based, ascending) whose worker exists *and* whom `membership`
/// admits: planned joiners are built up front but stay `Pending` until
/// their join fires.
pub(crate) fn alive(cluster: &impl Cluster, membership: &Membership) -> Vec<usize> {
    (0..membership.len())
        .filter(|&w| cluster.present(w) && membership.is_alive(w))
        .collect()
}

/// The start of tick `call.iter`, on every schedule: the crash schedule's
/// fail-stops, then the churn plan's crashes and joins among `events`. A
/// crashed worker's shard disappears with it (§V-B.3). A joiner
/// bootstraps from the lowest-id alive worker or, with none, keeps its
/// fresh deterministic init. Graceful leaves are [`depart`]'s.
pub(crate) fn arrivals(
    cluster: &mut impl Cluster,
    membership: &mut Membership,
    crash: &CrashSchedule,
    events: &[ChurnEvent],
    call: &Call,
) {
    let (iter, telemetry) = (call.iter, call.telemetry);
    for slot in 0..membership.len() {
        if cluster.present(slot) && crash.is_crashed(slot + 1, iter) {
            membership.crash(slot);
            fault(cluster, slot, call);
        }
    }
    for ev in events {
        let (slot, worker) = (ev.worker - 1, ev.worker);
        match ev.kind {
            ChurnKind::Crash => {
                if membership.apply(ev).is_ok() {
                    fault(cluster, slot, call);
                }
            }
            ChurnKind::Join => {
                membership.apply(ev).expect("validated churn plan");
                telemetry.event(Event::WorkerJoined { iter, worker });
                let src = alive(cluster, membership).into_iter().find(|&s| s != slot);
                if let Some(src) = src {
                    let bytes = cluster.bootstrap(call, src, slot);
                    telemetry.event(Event::BootstrapDone {
                        iter,
                        worker,
                        bytes,
                    });
                }
            }
            ChurnKind::Leave => {}
        }
    }
}

/// The ground truth changes; whether the server is told is the cluster's
/// business.
fn fault(cluster: &mut impl Cluster, slot: usize, call: &Call) {
    call.telemetry.event(Event::WorkerFault {
        iter: call.iter,
        worker: slot + 1,
    });
    cluster.crash(slot);
}

/// A graceful leave: the drained worker is released and its traffic
/// counters freeze at their last values.
pub(crate) fn depart(
    cluster: &mut impl Cluster,
    membership: &mut Membership,
    ev: &ChurnEvent,
    call: &Call,
) {
    if membership.apply(ev).is_ok() {
        cluster.retire(ev.worker - 1);
        call.stats.retire(ev.worker);
        call.telemetry.event(Event::WorkerLeft {
            iter: call.iter,
            worker: ev.worker,
        });
    }
}

/// Scores delivered feedbacks (`(slot, batch group, F_n)`, ascending slot)
/// with the free-rider forensics and records each verdict that changes a
/// worker's standing — a newly flagged worker with the scores that flagged
/// it, a cleared one.
pub(crate) fn verdicts(
    forensics: &mut FeedbackForensics,
    items: &[(usize, usize, &Tensor)],
    call: &Call,
) -> Vec<Verdict> {
    let verdicts = forensics.observe(items);
    for v in &verdicts {
        let (iter, worker) = (call.iter, v.worker + 1);
        if v.newly_flagged {
            call.telemetry.event(Event::WorkerFlagged {
                iter,
                worker,
                norm_score: f64::from(v.norm_score),
                self_cos: f64::from(v.self_cos),
                peer_cos: f64::from(v.peer_cos),
            });
        }
        if v.cleared {
            call.telemetry.event(Event::WorkerCleared { iter, worker });
        }
    }
    verdicts
}

/// Permanent removal of slot `wi`: the membership view records the
/// eviction, the peer's traffic counters freeze at their last values and
/// the forensics drops it from the population.
pub(crate) fn evict(
    membership: &mut Membership,
    forensics: &mut FeedbackForensics,
    wi: usize,
    freerider: bool,
    call: &Call,
) {
    let (iter, worker) = (call.iter, wi + 1);
    membership.evict(wi);
    call.stats.retire(worker);
    forensics.retire(wi);
    if freerider {
        call.telemetry
            .event(Event::FreeriderEvicted { iter, worker });
    }
    call.telemetry.event(Event::WorkerEvicted { iter, worker });
}

/// One addressed worker's share of the SPLIT.
pub(crate) struct Order {
    /// 0-based worker slot.
    pub slot: usize,
    /// The batch the feedback answers (`X_g`).
    pub g_id: usize,
    /// The batch the discriminator trains on (`X_d`).
    pub d_id: usize,
    /// Wire size of the two batches together.
    pub bytes: u64,
}

/// What the coordinator lends a [`Cluster`] for one call.
pub(crate) struct Call<'a> {
    /// The global iteration (the virtual tick of every message sent).
    pub iter: usize,
    /// The span the call's messages hang off.
    pub ctx: TraceCtx,
    pub stats: &'a TrafficStats,
    pub telemetry: &'a Recorder,
    /// Retransmissions a lost data message is allowed.
    pub retries: u32,
    /// Applied to a feedback before it leaves the worker (§VII.2).
    pub feedback_codec: Codec,
}

/// The workers as the server reaches them: a runtime is this and nothing
/// else. Slots are 0-based; node ids on the wire are `slot + 1`.
pub(crate) trait Cluster {
    /// Ground truth: does the worker still exist? The oracle path and the
    /// crash injection ask; the robust server must find out by itself.
    fn present(&self, slot: usize) -> bool;
    /// Fail-stop: the worker and its shard are gone.
    fn crash(&mut self, slot: usize);
    /// A graceful leave: the worker has drained and is released.
    fn retire(&mut self, slot: usize);
    /// Bootstrap-on-join: `src` ships its discriminator to the server (W→C
    /// at parameter cost), the server forwards it to `dst` as a
    /// checkpoint-v2 blob (C→W), whose size is returned.
    fn bootstrap(&mut self, call: &Call, src: usize, dst: usize) -> u64;
    /// Ships each order its two batches, lets the workers run Algorithm 1
    /// lines 4-10 and gathers the feedbacks that arrive — `(slot, g_id,
    /// F_n)` in ascending slot. Lost messages and crashed workers simply
    /// leave their slot out; whether that meets a quorum is the caller's.
    fn exchange(
        &mut self,
        call: &Call,
        orders: &[Order],
        batches: &[(Tensor, Vec<usize>)],
    ) -> Vec<(usize, usize, Tensor)>;
    /// Every `src` ships the discriminator it holds *now* to its `dst`.
    fn swap(&mut self, call: &Call, pairs: &[(usize, usize)]);
}

/// The server of Algorithm 1.
pub(crate) struct Coordinator {
    pub(crate) server: MdServer,
    cfg: MdGanConfig,
    k: usize,
    swap_interval: usize,
    object_size: usize,
    /// Key of the swap streams (step: `swaps`) and the host streams (step:
    /// `iter`).
    key: u64,
    /// Epoch-numbered cluster view; tracks churn-plan joins/leaves/crashes
    /// and robust-mode evictions. With churn disabled it never changes.
    membership: Membership,
    /// Timeout-based liveness inference (robust mode only).
    detector: FailureDetector,
    /// Server-side free-rider forensics (scores every gathered feedback
    /// when `cfg.defense.enabled`).
    forensics: FeedbackForensics,
    /// §VII.4: when `Some`, only these workers host a discriminator; swaps
    /// relocate the discriminators over all alive workers so the whole
    /// distributed dataset is still leveraged.
    disc_hosts: Option<Vec<usize>>,
    batch_codec: Codec,
    feedback_codec: Codec,
    stats: Arc<TrafficStats>,
    pub(crate) telemetry: Arc<Recorder>,
    iter: usize,
    swaps: usize,
}

impl Coordinator {
    /// The server, and next to it the workers and their attack states for
    /// the runtime to place. `stats` is where the runtime's transport
    /// charges its traffic.
    pub fn build(
        spec: &ArchSpec,
        shards: Vec<Dataset>,
        cfg: MdGanConfig,
        stats: Arc<TrafficStats>,
        telemetry: Arc<Recorder>,
    ) -> (Self, Vec<MdWorker>, Vec<AttackState>) {
        let object_size = shards[0].object_size();
        let swap_interval = cfg.swap_interval(shards[0].len());
        let (server, workers, key) = build_parts(spec, shards, &cfg);
        let attacks = attack_states(&cfg, &workers);
        let total = workers.len();
        let coord = Coordinator {
            server,
            k: cfg.k.resolve(cfg.workers),
            swap_interval,
            object_size,
            key,
            membership: Membership::new(cfg.workers, total),
            detector: FailureDetector::new(cfg.workers, cfg.robust.suspect_after)
                .expect("suspect_after must be at least 1")
                .with_eviction(cfg.robust.evict_after),
            forensics: FeedbackForensics::new(cfg.defense, total),
            disc_hosts: None,
            batch_codec: Codec::None,
            feedback_codec: Codec::None,
            stats,
            telemetry,
            iter: 0,
            swaps: 0,
            cfg,
        };
        (coord, workers, attacks)
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn swap_interval(&self) -> usize {
        self.swap_interval
    }

    pub fn iterations(&self) -> usize {
        self.iter
    }

    pub fn swaps(&self) -> usize {
        self.swaps
    }

    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    pub fn set_codecs(&mut self, batch: Codec, feedback: Codec) {
        self.batch_codec = batch;
        self.feedback_codec = feedback;
    }

    /// Hosts discriminators on workers `0..m` only (§VII.4).
    pub fn set_disc_count(&mut self, m: usize) {
        assert!(
            m >= 1 && m <= self.membership.len(),
            "disc count must be in [1, N]"
        );
        assert!(
            self.cfg.churn.is_none(),
            "fewer-discriminators mode does not compose with elastic churn"
        );
        self.disc_hosts = Some((0..m).collect());
    }

    /// Worker ids (1-based) alive in `cluster`: the worker exists *and* the
    /// membership view admits it (planned joiners are built up front but
    /// stay `Pending` until their join fires).
    pub fn alive_workers(&self, cluster: &impl Cluster) -> Vec<usize> {
        let alive = alive(cluster, &self.membership);
        alive.into_iter().map(|w| w + 1).collect()
    }

    /// One global iteration of Algorithm 1 over `cluster`.
    ///
    /// The one policy fork is who is addressed. With an oracle (the
    /// default) the server talks to the workers it knows alive and every
    /// one of them answers. In robust mode (a fault plan, the defense, or
    /// `cfg.robust.enabled`) crashes are *silent*: the server talks to every
    /// worker its failure detector does not suspect, learns about deaths
    /// only through missed feedbacks, and proceeds on a quorum.
    pub fn round(&mut self, cluster: &mut impl Cluster) {
        let robust = self.cfg.is_robust();
        if robust {
            self.assert_composes_with_robust();
        }
        let i = self.iter;
        let tick = i as u64;
        // Own handles, so what the cluster is lent borrows nothing of `self`.
        let (telemetry, stats) = (Arc::clone(&self.telemetry), Arc::clone(&self.stats));
        let (retries, feedback_codec) = (self.cfg.robust.retries, self.feedback_codec);
        let call = |ctx: TraceCtx| Call {
            iter: i,
            ctx,
            stats: &stats,
            telemetry: &telemetry,
            retries,
            feedback_codec,
        };
        let root = telemetry.trace_root(tick);
        let rcall = call(root.ctx());
        let rctx = rcall.ctx;
        let slots = self.membership.len();
        let churn: Vec<ChurnEvent> = self.cfg.churn.events_at(i).copied().collect();
        arrivals(
            cluster,
            &mut self.membership,
            &self.cfg.crash,
            &churn,
            &rcall,
        );

        // Who is addressed. The robust server also retries the suspected on
        // probe rounds, so false suspects can rejoin; evicted workers are
        // out permanently — not even probed.
        let (view, addressed) = if robust {
            let period = self.cfg.robust.probe_period;
            let probe = period > 0 && i.is_multiple_of(period);
            let det = &self.detector;
            let expected = (0..slots)
                .filter(|&w| !det.is_evicted(w) && (!det.is_suspected(w) || probe))
                .collect();
            (Vec::new(), expected)
        } else {
            let alive = alive(cluster, &self.membership);
            let hosts = match &self.disc_hosts {
                None => alive.clone(),
                Some(hosts) => hosts
                    .iter()
                    .copied()
                    .filter(|h| alive.contains(h))
                    .collect(),
            };
            (alive, hosts)
        };
        // `IterDone` reports the alive view, or — without an oracle — who
        // was heard.
        let mut reported = view.len();

        if !addressed.is_empty() {
            // With oracle churn the k-batch SPLIT is re-resolved over the
            // current view each iteration and rebalanced over the worker's
            // *position* in it; otherwise the construction-time k and the
            // absolute slot keep the pre-elastic assignment bit-for-bit.
            let dense = !robust && !self.cfg.churn.is_none();
            let k_now = if dense {
                self.cfg.k.resolve(view.len())
            } else {
                self.k
            };
            // Server: generate K = {X(1..k)}. With the identity codec the
            // charged sizes are exactly the paper's 2bd down / bd up; lossy
            // codecs shrink the wire and train on the reconstructions.
            let gen_span = telemetry.span_at(Phase::GenForward, Track::Server, rctx, tick);
            let (batches, wire_bytes): (Vec<(Tensor, Vec<usize>)>, Vec<u64>) = self
                .server
                .generate_batches(k_now, tick)
                .into_iter()
                .map(|(imgs, labels)| {
                    let (imgs, bytes) = self.batch_codec.transmit(imgs);
                    ((imgs, labels), bytes)
                })
                .unzip();
            drop(gen_span);
            debug_assert!(
                !matches!(self.batch_codec, Codec::None)
                    || wire_bytes[0] == batch_bytes(self.cfg.hyper.batch, self.object_size),
                "identity codec must charge bd per batch"
            );
            let orders: Vec<Order> = addressed
                .iter()
                .enumerate()
                .map(|(pos, &slot)| {
                    let (g_id, d_id) = MdServer::assign(if dense { pos } else { slot }, k_now);
                    Order {
                        slot,
                        g_id,
                        d_id,
                        bytes: wire_bytes[g_id] + wire_bytes[d_id],
                    }
                })
                .collect();
            let quorum = if robust {
                self.cfg.robust.quorum(orders.len())
            } else {
                orders.len()
            };
            let heard = cluster.exchange(&rcall, &orders, &batches);

            // Feedback forensics: score every gathered feedback against
            // the population, quarantine outliers of flagged workers (and
            // non-finite payloads unconditionally).
            let defense_on = self.cfg.defense.enabled;
            let quarantined: Vec<bool> = if defense_on {
                let items: Vec<(usize, usize, &Tensor)> =
                    heard.iter().map(|(wi, g_id, f)| (*wi, *g_id, f)).collect();
                let verdicts = verdicts(&mut self.forensics, &items, &rcall);
                verdicts.iter().map(|v| v.quarantined).collect()
            } else {
                vec![false; heard.len()]
            };
            if robust {
                reported = heard.len();
                // Detector transitions, exactly once per addressed worker.
                // A flagged free-rider's feedback counts as *missed*: the
                // same suspect → probe → evict machinery that removes
                // crashed workers graduates persistent forensic outliers
                // out of the membership view.
                for &wi in &addressed {
                    let flagged = defense_on && self.forensics.is_flagged(wi);
                    let answered = heard.iter().any(|h| h.0 == wi);
                    self.observe_liveness(wi, answered && !flagged, flagged, &rcall);
                }
            }
            let heard_count = heard.len();
            let kept: Vec<(usize, Tensor)> = heard
                .into_iter()
                .zip(&quarantined)
                .filter(|(_, &q)| !q)
                .map(|((_, g_id, f), _)| (g_id, f))
                .collect();
            if heard_count >= quorum && !kept.is_empty() {
                let _span = telemetry.span_at(Phase::GUpdate, Track::Server, rctx, tick);
                self.server
                    .apply_feedbacks_robust(&kept, kept.len(), self.cfg.aggregation);
            } else if heard_count > 0 {
                telemetry.event(Event::Custom {
                    name: "quorum_missed",
                    value: i as f64,
                });
            }

            // Swap every ⌊m·E/b⌋ iterations (Algorithm 1 line 11).
            if (i + 1).is_multiple_of(self.swap_interval) {
                let swap_span = telemetry.span_at(Phase::Swap, Track::Server, rctx, tick);
                let call = call(swap_span.ctx());
                let moved = match &self.disc_hosts {
                    None => {
                        // Routed around suspected peers when there is no
                        // oracle to name the alive ones.
                        let det = &self.detector;
                        let among: Vec<usize> = if robust {
                            (0..slots).filter(|&w| !det.is_suspected(w)).collect()
                        } else {
                            view
                        };
                        let rng = &mut Rng64::keyed(self.key, SWAP_STREAM, self.swaps as u64);
                        permute(cluster, &among, self.cfg.swap, rng, &call)
                    }
                    Some(_) if self.cfg.swap == SwapPolicy::Disabled => None,
                    // §VII.4: relocate the discriminators of the current
                    // hosts (= `addressed`) onto a fresh random subset of
                    // the alive workers — one swap, so every source ships
                    // the `D` it holds before any of them is overwritten.
                    Some(_) => {
                        let picks = Rng64::keyed(self.key, HOST_STREAM, tick)
                            .sample_distinct(view.len(), addressed.len());
                        let new_hosts: Vec<usize> = picks.into_iter().map(|j| view[j]).collect();
                        let pairs: Vec<(usize, usize)> = addressed
                            .iter()
                            .copied()
                            .zip(new_hosts.iter().copied())
                            .filter(|(src, dst)| src != dst)
                            .collect();
                        cluster.swap(&call, &pairs);
                        self.disc_hosts = Some(new_hosts);
                        Some(pairs.len())
                    }
                };
                if let Some(moved) = moved {
                    self.swaps += 1;
                    telemetry.event(Event::SwapDone { iter: i, moved });
                }
            }
        }

        // Graceful leaves depart at the *end* of the iteration: the leaver
        // drained its batches, sent its final feedback and took part in any
        // swap above before its slot is released.
        for ev in churn.iter().filter(|e| e.kind == ChurnKind::Leave) {
            depart(cluster, &mut self.membership, ev, &rcall);
        }
        drop(root);
        self.iter += 1;
        telemetry.event(Event::IterDone {
            iter: i,
            alive: reported,
        });
    }

    /// One detector transition for an addressed worker: `healthy` is a
    /// feedback that arrived and was not flagged.
    fn observe_liveness(&mut self, wi: usize, healthy: bool, flagged: bool, call: &Call) {
        let (iter, worker) = (self.iter, wi + 1);
        if healthy {
            if self.detector.heard(wi) == Liveness::Rejoined {
                call.telemetry.event(Event::WorkerRejoined { iter, worker });
            }
            return;
        }
        match self.detector.missed(wi) {
            Liveness::Suspected => call
                .telemetry
                .event(Event::WorkerSuspected { iter, worker }),
            Liveness::Evicted => {
                evict(&mut self.membership, &mut self.forensics, wi, flagged, call)
            }
            _ => {}
        }
    }

    fn assert_composes_with_robust(&self) {
        assert!(
            matches!(self.batch_codec, Codec::None) && matches!(self.feedback_codec, Codec::None),
            "robust mode does not compose with codecs"
        );
        assert!(
            self.disc_hosts.is_none(),
            "robust mode hosts one discriminator per worker"
        );
        let churn = self.cfg.churn.events();
        assert!(
            churn.iter().all(|e| e.kind == ChurnKind::Crash),
            "robust mode supports crash-only churn plans (joins and leaves need the oracle path)"
        );
    }

    /// Captures a full training checkpoint (format v2) around the workers'
    /// `states`: generator and alive discriminators *plus* Adam moments, the
    /// alive mask, counters and traffic totals — everything either
    /// synchronous runtime needs for a bit-identical resume, in one layout
    /// both read. No stream position is saved: every draw is keyed by a
    /// counter stored here (Adam step counts, `swaps`, the iteration).
    ///
    /// Robust-mode state (failure detector, per-link fault RNG) is *not*
    /// captured; resuming a robust run restarts the detector cold (see
    /// DESIGN.md §10).
    pub fn checkpoint(&self, states: Vec<Option<WorkerState>>) -> Checkpoint {
        let mut ck = Checkpoint::new(self.iter as u64);
        let gen_t = self.server.push_sections(&mut ck);
        push_workers(&mut ck, states, gen_t);
        ck.push_u64("counters", vec![self.swaps as u64]);
        ck.push_u64("traffic", self.stats.state_words());
        // Only churn-enabled runs carry a membership section, so default-
        // path checkpoints stay byte-identical to the pre-elastic format.
        if !self.cfg.churn.is_none() {
            ck.push_u64("membership", self.membership.state_words());
        }
        if let Some(hosts) = &self.disc_hosts {
            ck.push_u64("disc_hosts", hosts.iter().map(|&h| h as u64).collect());
        }
        ck
    }

    /// Restores a checkpoint taken on an identically configured system
    /// into this server and the (not yet placed) `workers`: parameters,
    /// optimizer moments, the alive mask (workers dead at capture time are
    /// dropped here too), counters and traffic totals; a resumed run then
    /// replays bit-for-bit. Missing or length-mismatched sections are
    /// errors, not silent skips.
    pub fn restore(
        &mut self,
        ck: &Checkpoint,
        workers: &mut [Option<MdWorker>],
    ) -> Result<(), TrainError> {
        self.server.restore_sections(ck)?;
        restore_workers(ck, workers)?;
        self.swaps = ck.require_u64_len("counters", 1).map_err(ckerr)?[0] as usize;
        self.stats
            .load_state_words(ck.require_u64("traffic").map_err(ckerr)?)
            .map_err(TrainError::Checkpoint)?;
        if !self.cfg.churn.is_none() {
            self.membership
                .load_state_words(ck.require_u64("membership").map_err(ckerr)?)
                .map_err(TrainError::Checkpoint)?;
            // Retirement flags are not part of the traffic state words
            // (format stability); re-derive them from the restored view.
            for slot in 0..self.membership.len() {
                if matches!(
                    self.membership.status(slot),
                    MemberStatus::Left | MemberStatus::Evicted
                ) {
                    self.stats.retire(slot + 1);
                }
            }
        }
        self.disc_hosts = match ck.get_u64("disc_hosts") {
            None => None,
            Some(hosts) => {
                let hosts: Vec<usize> = hosts.iter().map(|&h| h as usize).collect();
                if hosts.iter().any(|&h| h >= workers.len()) {
                    return Err(TrainError::Checkpoint(
                        "disc_hosts references an unknown worker".into(),
                    ));
                }
                Some(hosts)
            }
        };
        self.iter = ck.iteration as usize;
        Ok(())
    }
}
