//! The sequential (deterministic) MD-GAN runtime.
//!
//! Executes Algorithm 1 with the exact interaction order of the paper's
//! emulation: every global iteration the server generates `k` batches,
//! SPLITs them over the alive workers, collects all feedbacks, updates `w`,
//! and every `m·E/b` iterations coordinates the discriminator swap.
//! Traffic is charged per message exactly as Table III specifies.

use crate::arch::ArchSpec;
use crate::byzantine::{resolve_attacks, Aggregation, Attack, AttackState};
use crate::compression::Codec;
use crate::config::{MdGanConfig, SwapPolicy};
use crate::defense::FeedbackForensics;
use crate::error::TrainError;
use crate::eval::{Evaluator, ScoreTimeline};
use crate::mdgan::server::MdServer;
use crate::mdgan::worker::MdWorker;
use md_data::Dataset;
use md_nn::gan::Generator;
use md_nn::layer::Layer;
use md_nn::param::{batch_bytes, param_bytes};
use md_simnet::{
    ChurnEvent, ChurnKind, ChurnPlan, FailureDetector, FaultState, Liveness, MemberStatus,
    Membership, TrafficReport, TrafficStats,
};
use md_telemetry::{Event, Phase, Recorder, SpanKind, TraceCtx, Track};
use md_tensor::parallel::{parallel_for_each_mut, PAR_THRESHOLD};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use std::sync::Arc;

/// Builds the server, the workers and the swap RNG from one master seed.
/// Shared by the sequential and threaded runtimes so both are bit-for-bit
/// identical given the same config.
pub(crate) fn build_parts(
    spec: &ArchSpec,
    shards: Vec<Dataset>,
    cfg: &MdGanConfig,
) -> (MdServer, Vec<MdWorker>, Rng64) {
    // With an elastic plan the joiners' workers (and shards) are built up
    // front with their canonical RNG forks, so a joiner's fresh init is
    // bit-identical across runtimes regardless of when it joins.
    assert_eq!(
        shards.len(),
        cfg.total_workers(),
        "one shard per worker (including planned joiners) required"
    );
    assert!(cfg.workers > 0, "MD-GAN needs at least one worker");
    let mut master = Rng64::seed_from_u64(cfg.seed);
    let mut srv_rng = master.fork(0);
    let server = MdServer::new(spec, cfg.hyper, &mut srv_rng);
    let workers = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let mut wrng = master.fork(1 + i as u64);
            MdWorker::new(i + 1, spec, shard, cfg.hyper, &mut wrng)
        })
        .collect();
    let swap_rng = master.fork(0x5A3A9);
    (server, workers, swap_rng)
}

/// Computes the swap permutation over `alive.len()` workers.
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

/// One participant's share of a synchronous iteration, between the
/// server's SPLIT and its `Δw` merge. The server fills it in while it
/// dispatches the downlinks; [`compute`](Self::compute) then touches only
/// this worker's own state, so the turns of one iteration run side by side
/// on the tensor pool and produce the same bits in any order.
struct WorkerTurn<'a> {
    /// 0-based worker slot.
    wi: usize,
    worker: &'a mut MdWorker,
    attack: &'a mut AttackState,
    /// SPLIT assignment: the batch the feedback answers (`X_g`) and the
    /// batch the discriminator trains on (`X_d`).
    g_id: usize,
    d_id: usize,
    /// The downlink `Recv` the compute span hangs off; after
    /// [`compute`](Self::compute), the compute span the uplink hangs off.
    ctx: TraceCtx,
    /// What the server receives and the uplink bytes it is charged for.
    reply: Option<(Tensor, u64)>,
}

impl<'a> WorkerTurn<'a> {
    /// The turn of worker slot `wi`, whose downlink arrived as span `recv`
    /// of `trace`, answering `X_g = split.0` after training on
    /// `X_d = split.1`.
    fn new(
        wi: usize,
        (worker, attack): (&'a mut MdWorker, &'a mut AttackState),
        (g_id, d_id): (usize, usize),
        trace: u64,
        recv: u64,
    ) -> Self {
        WorkerTurn {
            wi,
            worker,
            attack,
            g_id,
            d_id,
            ctx: TraceCtx { trace, span: recv },
            reply: None,
        }
    }

    /// Algorithm 1 lines 4-10 for this worker, on whichever thread calls
    /// it: `L` discriminator steps, the error feedback, the worker's
    /// attack (honest workers pass through) and the feedback codec, all
    /// under one `DFeedback` span on the worker's track.
    fn compute(
        &mut self,
        batches: &[(Tensor, Vec<usize>)],
        codec: Codec,
        telemetry: &Recorder,
        tick: u64,
    ) {
        let track = Track::Worker((self.wi + 1) as u32);
        let span = telemetry.span_at(Phase::DFeedback, track, self.ctx, tick);
        self.ctx = span.ctx();
        let (xd, xd_labels) = &batches[self.d_id];
        let (xg, xg_labels) = &batches[self.g_id];
        let honest = self.worker.process(xd, xd_labels, xg, xg_labels);
        let sent = self.attack.apply(self.worker, honest, xg, xg_labels);
        self.reply = Some(codec.transmit(sent));
    }

    /// Stamps a reliable uplink: `Send` on the worker's track chained off
    /// the compute span, `Recv` on the server's — what the critical-path
    /// extractor gates on.
    fn trace_reliable_uplink(&self, telemetry: &Recorder, tick: u64) {
        let bytes = self.reply.as_ref().expect("compute ran").1;
        let node = (self.wi + 1) as u32;
        let sent = telemetry.trace_instant(
            SpanKind::Send {
                to: 0,
                bytes,
                attempt: 1,
            },
            Track::Worker(node),
            self.ctx,
            tick,
        );
        telemetry.trace_instant(
            SpanKind::Recv { from: node, bytes },
            Track::Server,
            TraceCtx {
                trace: self.ctx.trace,
                span: sent,
            },
            tick,
        );
    }
}

/// Disjoint `&mut` handles on every present worker and its attack state,
/// indexed by slot, for a dispatch loop to `take()` in participant order.
fn worker_slots<'a>(
    workers: &'a mut [Option<MdWorker>],
    attack_states: &'a mut [AttackState],
) -> Vec<Option<(&'a mut MdWorker, &'a mut AttackState)>> {
    workers
        .iter_mut()
        .zip(attack_states)
        .map(|(w, a)| w.as_mut().map(|w| (w, a)))
        .collect()
}

/// The MD-GAN system (sequential runtime).
pub struct MdGan {
    server: MdServer,
    /// `None` marks a crashed worker (its shard is gone with it).
    workers: Vec<Option<MdWorker>>,
    cfg: MdGanConfig,
    k: usize,
    stats: TrafficStats,
    swap_rng: Rng64,
    swap_interval: usize,
    iter: usize,
    swaps: usize,
    object_size: usize,
    feedback_codec: Codec,
    batch_codec: Codec,
    /// Per-worker feedback manipulation (§VII.3); all-honest by default.
    attacks: Vec<Attack>,
    attack_rng: Rng64,
    /// Stateful per-worker attack execution (per-worker RNG streams, echo
    /// caches, stale discriminator snapshots) — derived from `attacks`.
    attack_states: Vec<AttackState>,
    aggregation: Aggregation,
    /// Server-side free-rider forensics (scores every gathered feedback
    /// when `cfg.defense.enabled`).
    forensics: FeedbackForensics,
    /// §VII.4: when `Some(m)`, only `m ≤ N` workers host a discriminator
    /// at any time; swaps relocate the m discriminators over all alive
    /// workers so the whole distributed dataset is still leveraged.
    disc_hosts: Option<Vec<usize>>,
    host_rng: Rng64,
    telemetry: Arc<Recorder>,
    /// Instantiated fault plan; present iff the config is robust.
    fault_state: Option<FaultState>,
    /// Timeout-based liveness inference (robust mode only; the oracle
    /// `workers[i].is_none()` stays invisible to the robust server loop).
    detector: FailureDetector,
    /// Epoch-numbered cluster view; tracks churn-plan joins/leaves/crashes
    /// (and robust-mode evictions). With churn disabled it never changes.
    membership: Membership,
}

impl MdGan {
    /// Builds the full system over pre-sharded data.
    pub fn new(spec: &ArchSpec, shards: Vec<Dataset>, cfg: MdGanConfig) -> Self {
        let object_size = shards[0].object_size();
        let shard_size = shards[0].len();
        let seed = cfg.seed;
        if !cfg.churn.is_none() {
            ChurnPlan::from_events(cfg.workers, cfg.churn.events().to_vec())
                .expect("invalid churn plan");
        }
        let total = cfg.total_workers();
        let (server, workers, swap_rng) = build_parts(spec, shards, &cfg);
        let k = cfg.k.resolve(cfg.workers);
        let swap_interval = cfg.swap_interval(shard_size);
        let stats = TrafficStats::new(1 + total);
        let fault_state = cfg
            .is_robust()
            .then(|| FaultState::new(cfg.fault.clone(), 1 + total));
        let detector = FailureDetector::new(cfg.workers, cfg.robust.suspect_after)
            .expect("suspect_after must be at least 1")
            .with_eviction(cfg.robust.evict_after);
        let membership = Membership::new(cfg.workers, total);
        let workers: Vec<Option<MdWorker>> = workers.into_iter().map(Some).collect();
        let attacks = resolve_attacks(&cfg.attacks, total);
        let attack_states = Self::build_attack_states(&attacks, &workers, seed);
        let forensics = FeedbackForensics::new(cfg.defense, total);
        let aggregation = cfg.aggregation;
        MdGan {
            server,
            workers,
            cfg,
            k,
            stats,
            swap_rng,
            swap_interval,
            iter: 0,
            swaps: 0,
            object_size,
            feedback_codec: Codec::None,
            batch_codec: Codec::None,
            attacks,
            attack_rng: Rng64::seed_from_u64(seed ^ 0xA77AC4),
            attack_states,
            aggregation,
            forensics,
            disc_hosts: None,
            host_rng: Rng64::seed_from_u64(seed ^ 0x4057),
            telemetry: Arc::new(Recorder::disabled()),
            fault_state,
            detector,
            membership,
        }
    }

    /// Attaches a telemetry recorder: phases (`gen_forward`, `d_feedback`,
    /// `g_update`, `swap`, `eval`), counters and per-worker tallies are
    /// recorded into it. Recording is off by default.
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.telemetry = recorder;
        self
    }

    /// The attached telemetry recorder (a disabled one when none was set).
    pub fn telemetry(&self) -> &Arc<Recorder> {
        &self.telemetry
    }

    /// Enables lossy message compression (§VII.2): `batch` is applied to
    /// the generated batches the server ships down, `feedback` to the
    /// error feedbacks the workers ship up. Workers and server train on
    /// the *decompressed* approximations, and the traffic accounting
    /// charges the compressed wire sizes.
    pub fn with_codecs(mut self, batch: Codec, feedback: Codec) -> Self {
        self.batch_codec = batch;
        self.feedback_codec = feedback;
        self
    }

    /// Marks some workers as byzantine (§VII.3). `attacks[i]` applies to
    /// worker `i+1`'s feedback before it is sent; shorter lists are padded
    /// with [`Attack::None`]. Call before training starts: stateful
    /// free-rider strategies snapshot the workers' *initial*
    /// discriminators here.
    ///
    /// # Panics
    /// Panics when more attack entries than workers are supplied.
    pub fn with_attacks(mut self, attacks: Vec<Attack>) -> Self {
        self.attacks = resolve_attacks(&attacks, self.workers.len());
        self.attack_states = Self::build_attack_states(&self.attacks, &self.workers, self.cfg.seed);
        self
    }

    /// One [`AttackState`] per worker slot; pre-trained-mimicry attackers
    /// freeze the worker's current (initial) discriminator parameters.
    fn build_attack_states(
        attacks: &[Attack],
        workers: &[Option<MdWorker>],
        seed: u64,
    ) -> Vec<AttackState> {
        attacks
            .iter()
            .enumerate()
            .map(|(wi, &a)| {
                let snap = matches!(a, Attack::PretrainedMimic).then(|| {
                    workers[wi]
                        .as_ref()
                        .expect("attacker slot alive at init")
                        .disc_params()
                });
                AttackState::new(a, seed, wi, snap)
            })
            .collect()
    }

    /// Chooses the server-side feedback aggregator (§VII.3); the default
    /// [`Aggregation::Mean`] is the paper's plain average.
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
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
        assert!(
            m >= 1 && m <= self.workers.len(),
            "disc count must be in [1, N]"
        );
        assert!(
            self.cfg.churn.is_none(),
            "fewer-discriminators mode does not compose with elastic churn"
        );
        self.disc_hosts = Some((0..m).collect());
        self
    }

    /// The workers currently hosting a discriminator (0-based indices).
    fn hosts(&self, alive: &[usize]) -> Vec<usize> {
        match &self.disc_hosts {
            None => alive.to_vec(),
            Some(hosts) => hosts
                .iter()
                .copied()
                .filter(|h| alive.contains(h))
                .collect(),
        }
    }

    /// The resolved `k` (number of generated batches per iteration).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Global iterations between swaps (`⌊m·E/b⌋`).
    pub fn swap_interval(&self) -> usize {
        self.swap_interval
    }

    /// Completed global iterations.
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Completed swap rounds.
    pub fn swaps(&self) -> usize {
        self.swaps
    }

    /// Worker ids (1-based) currently alive: the worker exists *and* the
    /// membership view admits it (planned joiners are built up front but
    /// stay `Pending` until their join fires).
    pub fn alive_workers(&self) -> Vec<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(i, w)| w.is_some() && self.membership.is_alive(*i))
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// The current membership view (epoch-numbered).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The single server-side generator.
    pub fn generator_mut(&mut self) -> &mut Generator {
        &mut self.server.gen
    }

    /// Flat generator parameters.
    pub fn gen_params(&self) -> Vec<f32> {
        self.server.gen_params()
    }

    /// Traffic snapshot.
    pub fn traffic(&self) -> TrafficReport {
        self.stats.report()
    }

    /// Captures a full training checkpoint (format v2): generator and
    /// alive discriminators *plus* Adam moments, every RNG stream
    /// position, the alive mask, counters and traffic totals — everything
    /// the sequential runtime needs for a bit-identical resume.
    ///
    /// Robust-mode state (failure detector, per-link fault RNG) is *not*
    /// captured; resuming a robust run restarts the detector cold (see
    /// DESIGN.md §10).
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        let n = self.workers.len();
        let mut ck = crate::checkpoint::Checkpoint::new(self.iter as u64);
        ck.push("generator", self.server.gen_params());
        let g_opt = self.server.opt_state();
        ck.push("opt_g_m", g_opt.m);
        ck.push("opt_g_v", g_opt.v);
        let mut adam_t = vec![0u64; 1 + n];
        adam_t[0] = g_opt.t;
        ck.push_u64("rng_server", self.server.rng_state_words().to_vec());
        ck.push_u64("rng_swap", self.swap_rng.state_words().to_vec());
        ck.push_u64("rng_attack", self.attack_rng.state_words().to_vec());
        ck.push_u64("rng_host", self.host_rng.state_words().to_vec());
        let alive: Vec<u64> = self
            .workers
            .iter()
            .map(|w| u64::from(w.is_some()))
            .collect();
        for (i, w) in self.workers.iter().enumerate() {
            let Some(w) = w else { continue };
            let id = i + 1;
            ck.push(format!("disc_{id}"), w.disc_params());
            let d_opt = w.opt_state();
            adam_t[id] = d_opt.t;
            ck.push(format!("opt_d_{id}_m"), d_opt.m);
            ck.push(format!("opt_d_{id}_v"), d_opt.v);
            ck.push_u64(
                format!("rng_sampler_{id}"),
                w.sampler_state_words().to_vec(),
            );
        }
        ck.push_u64("adam_t", adam_t);
        ck.push_u64("alive", alive);
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

    /// Restores a checkpoint taken on an identically configured system.
    ///
    /// Full (v2) checkpoints restore parameters, optimizer moments, RNG
    /// positions, the alive mask (workers dead at capture time are killed
    /// here too), counters and traffic totals; a resumed run then replays
    /// bit-for-bit. Missing or length-mismatched sections are errors, not
    /// silent skips. Legacy parameter-only checkpoints (format v1, or v2
    /// files without the full-state sections) restore parameters only: a
    /// worker without a `disc_n` section is treated as crashed, and
    /// optimizer moments/RNG streams restart fresh.
    pub fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) -> Result<(), TrainError> {
        let ckerr = |e: std::io::Error| TrainError::Checkpoint(e.to_string());
        let n = self.workers.len();
        let gen = ck
            .require_len("generator", self.server.gen_params_len())
            .map_err(ckerr)?;
        self.server.set_gen_params(gen);

        if ck.get_u64("alive").is_none() {
            // Legacy parameter-only checkpoint.
            for i in 0..n {
                match ck.get(&format!("disc_{}", i + 1)) {
                    Some(params) => {
                        if let Some(w) = self.workers[i].as_mut() {
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
                    None => self.workers[i] = None,
                }
            }
            self.iter = ck.iteration as usize;
            return Ok(());
        }

        let alive = ck.require_u64_len("alive", n).map_err(ckerr)?.to_vec();
        let adam_t = ck.require_u64_len("adam_t", 1 + n).map_err(ckerr)?.to_vec();
        let g_state = md_nn::optim::AdamState {
            t: adam_t[0],
            m: ck.require("opt_g_m").map_err(ckerr)?.to_vec(),
            v: ck.require("opt_g_v").map_err(ckerr)?.to_vec(),
        };
        self.server
            .import_opt_state(&g_state)
            .map_err(TrainError::Checkpoint)?;

        let words = |name: &str| -> Result<[u64; Rng64::STATE_WORDS], TrainError> {
            let w = ck
                .require_u64_len(name, Rng64::STATE_WORDS)
                .map_err(ckerr)?;
            Ok(std::array::from_fn(|i| w[i]))
        };
        self.server.set_rng_state_words(words("rng_server")?);
        self.swap_rng = Rng64::from_state_words(words("rng_swap")?);
        self.attack_rng = Rng64::from_state_words(words("rng_attack")?);
        self.host_rng = Rng64::from_state_words(words("rng_host")?);

        // Index drives three things at once: the alive bitmap, the worker
        // slot, and the 1-based section names.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let id = i + 1;
            if alive[i] == 0 {
                self.workers[i] = None;
                continue;
            }
            let Some(w) = self.workers[i].as_mut() else {
                return Err(TrainError::Checkpoint(format!(
                    "checkpoint has worker {id} alive but it already crashed here"
                )));
            };
            let disc = ck
                .require_len(&format!("disc_{id}"), w.disc_params_len())
                .map_err(ckerr)?;
            w.set_disc_params(disc);
            let d_state = md_nn::optim::AdamState {
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
        self.swaps = counters[0] as usize;
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
                if hosts.iter().any(|&h| h >= n) {
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

    /// One global iteration of Algorithm 1.
    ///
    /// In robust mode (a fault plan is set or `cfg.robust.enabled`) this
    /// dispatches to the lossy-network iteration, which performs the same
    /// logical computation without consulting the crash oracle.
    pub fn step(&mut self) {
        if self.cfg.is_robust() {
            self.step_robust();
            return;
        }
        let i = self.iter;
        let b = self.cfg.hyper.batch;
        let d = self.object_size;
        let tick = i as u64;
        let root = self.telemetry.trace_root(tick);
        let rctx = root.ctx();

        // Fail-stop crashes take effect at the start of the iteration; the
        // worker's data shard disappears with it (§V-B.3).
        for idx in 0..self.workers.len() {
            if self.workers[idx].is_some() && self.cfg.crash.is_crashed(idx + 1, i) {
                self.workers[idx] = None;
                self.membership.crash(idx);
                self.telemetry.event(Event::WorkerFault {
                    iter: i,
                    worker: idx + 1,
                });
            }
        }
        // Churn-plan crashes and joins fire at the start of the iteration
        // (graceful leaves drain through it and depart at the end).
        let churned = !self.cfg.churn.is_none();
        if churned {
            let evs: Vec<ChurnEvent> = self.cfg.churn.events_at(i).copied().collect();
            for ev in &evs {
                let slot = ev.worker - 1;
                match ev.kind {
                    ChurnKind::Crash => {
                        if self.membership.apply(ev).is_ok() {
                            self.workers[slot] = None;
                            self.telemetry.event(Event::WorkerFault {
                                iter: i,
                                worker: ev.worker,
                            });
                        }
                    }
                    ChurnKind::Join => {
                        self.membership.apply(ev).expect("validated churn plan");
                        self.detector.track(slot);
                        self.telemetry.event(Event::WorkerJoined {
                            iter: i,
                            worker: ev.worker,
                        });
                        Self::bootstrap_joiner(
                            &mut self.workers,
                            &self.membership,
                            &self.stats,
                            &self.telemetry,
                            i,
                            slot,
                        );
                    }
                    ChurnKind::Leave => {}
                }
            }
        }
        let alive: Vec<usize> = (0..self.workers.len())
            .filter(|&w| self.workers[w].is_some() && self.membership.is_alive(w))
            .collect();
        if alive.is_empty() {
            self.iter += 1;
            self.telemetry.event(Event::IterDone { iter: i, alive: 0 });
            return;
        }
        // With churn the k-batch SPLIT is re-resolved over the *current*
        // view each iteration; without churn the construction-time k is
        // kept so default-path outputs stay byte-identical.
        let k_now = if churned {
            self.cfg.k.resolve(alive.len())
        } else {
            self.k
        };

        // Server: generate K = {X(1..k)} and SPLIT over workers.
        let gen_span = self
            .telemetry
            .span_at(Phase::GenForward, Track::Server, rctx, tick);
        // With the identity codec the charged sizes are exactly the paper's
        // 2bd down / bd up; lossy codecs shrink the wire and train on the
        // reconstructed approximations.
        let (batches, wire_bytes): (Vec<(Tensor, Vec<usize>)>, Vec<u64>) = self
            .server
            .generate_batches(k_now)
            .into_iter()
            .map(|(imgs, labels)| {
                let (imgs, bytes) = self.batch_codec.transmit(imgs);
                ((imgs, labels), bytes)
            })
            .unzip();
        drop(gen_span);
        debug_assert!(
            !matches!(self.batch_codec, Codec::None) || wire_bytes[0] == batch_bytes(b, d),
            "identity codec must charge bd per batch"
        );
        let participants = self.hosts(&alive);
        if participants.is_empty() {
            self.iter += 1;
            return;
        }
        // Dispatch, in participant order: SPLIT and the downlinks.
        let mut slots = worker_slots(&mut self.workers, &mut self.attack_states);
        let mut turns: Vec<WorkerTurn> = Vec::with_capacity(participants.len());
        for (pos, &wi) in participants.iter().enumerate() {
            // With churn the SPLIT rebalances over the worker's *position*
            // in the alive view (same formula, dense index); without it the
            // absolute slot keeps the pre-elastic assignment bit-for-bit.
            let (g_id, d_id) = if churned {
                MdServer::assign(pos, k_now)
            } else {
                MdServer::assign(wi, self.k)
            };
            let down = wire_bytes[g_id] + wire_bytes[d_id];
            self.stats.record(0, wi + 1, down);
            // Downlink: one reliable logical message, traced as a
            // send→recv pair so the worker's compute hangs off it.
            let sent = self.telemetry.trace_instant(
                SpanKind::Send {
                    to: (wi + 1) as u32,
                    bytes: down,
                    attempt: 1,
                },
                Track::Server,
                rctx,
                tick,
            );
            let got = self.telemetry.trace_instant(
                SpanKind::Recv {
                    from: 0,
                    bytes: down,
                },
                Track::Worker((wi + 1) as u32),
                TraceCtx {
                    trace: rctx.trace,
                    span: sent,
                },
                tick,
            );
            let state = slots[wi].take().expect("alive worker present");
            turns.push(WorkerTurn::new(wi, state, (g_id, d_id), rctx.trace, got));
        }
        // Compute, side by side. The uplink is reliable here, so its
        // send→recv pair is stamped the moment each worker finishes: the
        // latest server-side arrival names the worker that really gated
        // the update.
        let (telemetry, codec) = (&*self.telemetry, self.feedback_codec);
        parallel_for_each_mut(&mut turns, PAR_THRESHOLD, |_, turn| {
            turn.compute(&batches, codec, telemetry, tick);
            turn.trace_reliable_uplink(telemetry, tick);
        });
        // Collect, in participant order: the uplinks.
        let mut feedbacks: Vec<(usize, Tensor)> = Vec::with_capacity(turns.len());
        for turn in turns {
            let (feedback, up) = turn.reply.expect("compute ran for every turn");
            self.stats.record(turn.wi + 1, 0, up);
            feedbacks.push((turn.g_id, feedback));
            self.telemetry.worker_feedback(turn.wi + 1);
        }
        let upd_span = self
            .telemetry
            .span_at(Phase::GUpdate, Track::Server, rctx, tick);
        self.server
            .apply_feedbacks_robust(&feedbacks, participants.len(), self.aggregation);
        drop(upd_span);

        // Swap every ⌊m·E/b⌋ iterations (Algorithm 1 line 11).
        if (i + 1).is_multiple_of(self.swap_interval) {
            let swap_span = self
                .telemetry
                .span_at(Phase::Swap, Track::Server, rctx, tick);
            match &self.disc_hosts {
                None => {
                    if let Some(perm) =
                        swap_permutation(self.cfg.swap, alive.len(), &mut self.swap_rng)
                    {
                        let params: Vec<Vec<f32>> = alive
                            .iter()
                            .map(|&wi| self.workers[wi].as_ref().unwrap().disc_params())
                            .collect();
                        for (j, &src) in alive.iter().enumerate() {
                            let dst = alive[perm[j]];
                            self.stats
                                .record(src + 1, dst + 1, param_bytes(params[j].len()));
                            self.workers[dst]
                                .as_mut()
                                .unwrap()
                                .set_disc_params(&params[j]);
                            self.telemetry.worker_swap_in(dst + 1);
                        }
                        self.swaps += 1;
                        self.telemetry.event(Event::SwapDone {
                            iter: i,
                            moved: alive.len(),
                        });
                    }
                }
                Some(_) if self.cfg.swap != SwapPolicy::Disabled => {
                    // §VII.4: relocate the m discriminators onto a fresh
                    // random subset of the alive workers.
                    let current = self.hosts(&alive);
                    if !current.is_empty() && !alive.is_empty() {
                        let m = current.len().min(alive.len());
                        let picks = self.host_rng.sample_distinct(alive.len(), m);
                        let new_hosts: Vec<usize> = picks.into_iter().map(|j| alive[j]).collect();
                        let mut moved = 0;
                        for (j, &src) in current.iter().take(m).enumerate() {
                            let dst = new_hosts[j];
                            if dst != src {
                                let params = self.workers[src].as_ref().unwrap().disc_params();
                                self.stats
                                    .record(src + 1, dst + 1, param_bytes(params.len()));
                                self.workers[dst].as_mut().unwrap().set_disc_params(&params);
                                self.telemetry.worker_swap_in(dst + 1);
                                moved += 1;
                            }
                        }
                        self.disc_hosts = Some(new_hosts);
                        self.swaps += 1;
                        self.telemetry.event(Event::SwapDone { iter: i, moved });
                    }
                }
                Some(_) => {}
            }
            drop(swap_span);
        }
        // Graceful leaves depart at the *end* of the iteration: the leaver
        // drained its batches, sent its final feedback and took part in any
        // swap above before its slot is released.
        if churned {
            let evs: Vec<ChurnEvent> = self.cfg.churn.events_at(i).copied().collect();
            for ev in evs.iter().filter(|e| e.kind == ChurnKind::Leave) {
                if self.membership.apply(ev).is_ok() {
                    let slot = ev.worker - 1;
                    self.workers[slot] = None;
                    self.detector.forget(slot);
                    self.stats.retire(slot + 1);
                    self.telemetry.event(Event::WorkerLeft {
                        iter: i,
                        worker: ev.worker,
                    });
                }
            }
        }
        drop(root);
        self.iter += 1;
        self.telemetry.event(Event::IterDone {
            iter: i,
            alive: alive.len(),
        });
    }

    /// Bootstraps a joining worker's discriminator from the lowest-id alive
    /// worker: the source ships its parameters to the server (charged W→C
    /// at full parameter cost), the server wraps them in a checkpoint-v2
    /// blob and forwards it to the joiner (charged C→W at blob size). With
    /// no alive source the joiner keeps its fresh deterministic init.
    fn bootstrap_joiner(
        workers: &mut [Option<MdWorker>],
        membership: &Membership,
        stats: &TrafficStats,
        telemetry: &Recorder,
        iter: usize,
        slot: usize,
    ) {
        let src = membership
            .alive()
            .into_iter()
            .find(|&s| s != slot && workers[s].is_some());
        let Some(src) = src else { return };
        let params = workers[src].as_ref().unwrap().disc_params();
        stats.record(src + 1, 0, param_bytes(params.len()));
        let blob = crate::mdgan::bootstrap_blob(iter as u64, &params);
        let blob_len = blob.len() as u64;
        stats.record(0, slot + 1, blob_len);
        let disc = crate::mdgan::bootstrap_disc(&blob).expect("fresh blob decodes");
        if let Some(w) = workers[slot].as_mut() {
            w.set_disc_params(&disc);
        }
        telemetry.event(Event::BootstrapDone {
            iter,
            worker: slot + 1,
            bytes: blob_len,
        });
    }

    /// One global iteration over the lossy network.
    ///
    /// Simulates exactly what the threaded runtime does under the same
    /// [`FaultPlan`](md_simnet::FaultPlan) — same per-link fate draws in
    /// the same order, same byte accounting, same detector transitions —
    /// so the two produce bit-identical generators (asserted by the
    /// equivalence tests). Crashes are *silent*: the server talks to every
    /// worker its failure detector does not suspect, and learns about
    /// deaths only through missed feedbacks.
    fn step_robust(&mut self) {
        assert!(
            matches!(self.batch_codec, Codec::None) && matches!(self.feedback_codec, Codec::None),
            "robust mode does not compose with codecs"
        );
        assert!(
            self.disc_hosts.is_none(),
            "robust mode hosts one discriminator per worker"
        );
        assert!(
            self.cfg
                .churn
                .events()
                .iter()
                .all(|e| e.kind == ChurnKind::Crash),
            "robust mode supports crash-only churn plans (joins and leaves need the oracle path)"
        );
        let i = self.iter;
        let b = self.cfg.hyper.batch;
        let d = self.object_size;
        let retries = self.cfg.robust.retries;
        let tick = i as u64;
        let root = self.telemetry.trace_root(tick);
        let rctx = root.ctx();

        // Fail-stop crashes are injected but not announced.
        for idx in 0..self.workers.len() {
            if self.workers[idx].is_some() && self.cfg.crash.is_crashed(idx + 1, i) {
                self.workers[idx] = None;
                self.membership.crash(idx);
                self.telemetry.event(Event::WorkerFault {
                    iter: i,
                    worker: idx + 1,
                });
            }
        }
        // Churn-plan crashes are equally silent: the ground truth changes,
        // the server learns about it only through the failure detector.
        let evs: Vec<ChurnEvent> = self.cfg.churn.events_at(i).copied().collect();
        for ev in evs.iter().filter(|e| e.kind == ChurnKind::Crash) {
            if self.membership.apply(ev).is_ok() {
                self.workers[ev.worker - 1] = None;
                self.telemetry.event(Event::WorkerFault {
                    iter: i,
                    worker: ev.worker,
                });
            }
        }

        // The server talks to every unsuspected worker; probe rounds also
        // retry the suspected ones so false suspects can rejoin. Evicted
        // workers are out permanently — not even probed.
        let probe =
            self.cfg.robust.probe_period > 0 && i.is_multiple_of(self.cfg.robust.probe_period);
        let expected: Vec<usize> = (0..self.workers.len())
            .filter(|&w| !self.detector.is_evicted(w) && (!self.detector.is_suspected(w) || probe))
            .collect();
        let mut heard_count = 0;
        if !expected.is_empty() {
            let gen_span = self
                .telemetry
                .span_at(Phase::GenForward, Track::Server, rctx, tick);
            let batches = self.server.generate_batches(self.k);
            drop(gen_span);
            let fs = self
                .fault_state
                .as_ref()
                .expect("robust mode instantiates a fault state");

            // Downlinks in id order, worker compute side by side, uplinks
            // in id order. Every link carries at most one logical message
            // per iteration and fates are drawn per link, so the draws match
            // the threaded runtime's whatever the order across links.
            let telemetry = &*self.telemetry;
            let mut slots = worker_slots(&mut self.workers, &mut self.attack_states);
            let mut turns: Vec<WorkerTurn> = Vec::with_capacity(expected.len());
            for &wi in &expected {
                let wtrack = Track::Worker((wi + 1) as u32);
                let down_bytes = 2 * batch_bytes(b, d);
                // The sequential runtime has no real queues, so the
                // receive instant is recorded inside the deliver hook —
                // exactly where the threaded runtime's endpoint records
                // it when the envelope is popped.
                let mut down_recv = 0u64;
                let down = fs.transmit(
                    0,
                    wi + 1,
                    tick,
                    down_bytes,
                    retries,
                    &self.stats,
                    Some(telemetry),
                    rctx,
                    |dup, sent| {
                        if !dup && sent != 0 {
                            down_recv = telemetry.trace_instant(
                                SpanKind::Recv {
                                    from: 0,
                                    bytes: down_bytes,
                                },
                                wtrack,
                                TraceCtx {
                                    trace: rctx.trace,
                                    span: sent,
                                },
                                tick,
                            );
                        }
                    },
                );
                if !down.delivered {
                    continue;
                }
                // A crashed worker still received the batches (the bytes
                // moved) but computes and answers nothing.
                let Some(state) = slots[wi].take() else {
                    continue;
                };
                let split = MdServer::assign(wi, self.k);
                turns.push(WorkerTurn::new(wi, state, split, rctx.trace, down_recv));
            }
            parallel_for_each_mut(&mut turns, PAR_THRESHOLD, |_, turn| {
                turn.compute(&batches, Codec::None, telemetry, tick);
            });
            let mut feedbacks: Vec<(usize, Tensor)> = Vec::with_capacity(turns.len());
            let mut heard: Vec<usize> = Vec::with_capacity(turns.len());
            for turn in turns {
                let (wi, fctx) = (turn.wi, turn.ctx);
                let (f, up_bytes) = turn.reply.expect("compute ran for every turn");
                telemetry.worker_feedback(wi + 1);
                let up = fs.transmit(
                    wi + 1,
                    0,
                    tick,
                    up_bytes,
                    retries,
                    &self.stats,
                    Some(telemetry),
                    fctx,
                    |dup, sent| {
                        if !dup && sent != 0 {
                            telemetry.trace_instant(
                                SpanKind::Recv {
                                    from: (wi + 1) as u32,
                                    bytes: up_bytes,
                                },
                                Track::Server,
                                TraceCtx {
                                    trace: fctx.trace,
                                    span: sent,
                                },
                                tick,
                            );
                        }
                    },
                );
                if up.delivered {
                    feedbacks.push((turn.g_id, f));
                    heard.push(wi);
                }
            }

            // Feedback forensics: score every gathered feedback against
            // the population, quarantine outliers of flagged workers (and
            // non-finite payloads unconditionally).
            let defense_on = self.cfg.defense.enabled;
            let mut quarantined: Vec<bool> = vec![false; feedbacks.len()];
            if defense_on {
                let items: Vec<(usize, usize, &Tensor)> = heard
                    .iter()
                    .zip(feedbacks.iter())
                    .map(|(&wi, (g_id, f))| (wi, *g_id, f))
                    .collect();
                let verdicts = self.forensics.observe(&items);
                for (k, v) in verdicts.iter().enumerate() {
                    quarantined[k] = v.quarantined;
                    if v.newly_flagged {
                        self.telemetry.event(Event::WorkerFlagged {
                            iter: i,
                            worker: v.worker + 1,
                            norm_score: f64::from(v.norm_score),
                            self_cos: f64::from(v.self_cos),
                            peer_cos: f64::from(v.peer_cos),
                        });
                    }
                    if v.cleared {
                        self.telemetry.event(Event::WorkerCleared {
                            iter: i,
                            worker: v.worker + 1,
                        });
                    }
                }
            }

            // Detector transitions, exactly once per expected worker. A
            // flagged free-rider's feedback counts as *missed*: the same
            // suspect → probe → evict machinery that removes crashed
            // workers graduates persistent forensic outliers out of the
            // membership view.
            for &wi in &expected {
                let flagged = defense_on && self.forensics.is_flagged(wi);
                if heard.contains(&wi) && !flagged {
                    if self.detector.heard(wi) == Liveness::Rejoined {
                        self.telemetry.event(Event::WorkerRejoined {
                            iter: i,
                            worker: wi + 1,
                        });
                    }
                } else {
                    match self.detector.missed(wi) {
                        Liveness::Suspected => {
                            self.telemetry.event(Event::WorkerSuspected {
                                iter: i,
                                worker: wi + 1,
                            });
                        }
                        Liveness::Evicted => {
                            // Permanent: the membership view records the
                            // eviction and the peer's traffic counters
                            // freeze at their last values.
                            self.membership.evict(wi);
                            self.stats.retire(wi + 1);
                            self.forensics.retire(wi);
                            if flagged {
                                self.telemetry.event(Event::FreeriderEvicted {
                                    iter: i,
                                    worker: wi + 1,
                                });
                            }
                            self.telemetry.event(Event::WorkerEvicted {
                                iter: i,
                                worker: wi + 1,
                            });
                        }
                        _ => {}
                    }
                }
            }
            heard_count = heard.len();
            let quorum = self.cfg.robust.quorum(expected.len());
            let kept: Vec<(usize, Tensor)> = feedbacks
                .into_iter()
                .zip(quarantined.iter())
                .filter(|(_, &q)| !q)
                .map(|(f, _)| f)
                .collect();
            if heard_count >= quorum && !kept.is_empty() {
                let upd_span = self
                    .telemetry
                    .span_at(Phase::GUpdate, Track::Server, rctx, tick);
                self.server
                    .apply_feedbacks_robust(&kept, kept.len(), self.aggregation);
                drop(upd_span);
            } else if heard_count > 0 {
                self.telemetry.event(Event::Custom {
                    name: "quorum_missed",
                    value: i as f64,
                });
            }

            // Swap round, routed around suspected peers. The discriminator
            // transfer itself crosses the faulty network; a lost transfer
            // leaves the destination on its old parameters (the threaded
            // destination times out waiting).
            if (i + 1).is_multiple_of(self.swap_interval) {
                let swap_span = self
                    .telemetry
                    .span_at(Phase::Swap, Track::Server, rctx, tick);
                let candidates: Vec<usize> = (0..self.workers.len())
                    .filter(|&w| !self.detector.is_suspected(w))
                    .collect();
                if let Some(perm) =
                    swap_permutation(self.cfg.swap, candidates.len(), &mut self.swap_rng)
                {
                    // Pre-swap snapshots; a crashed source sends nothing.
                    let params: Vec<Option<Vec<f32>>> = candidates
                        .iter()
                        .map(|&wi| self.workers[wi].as_ref().map(|w| w.disc_params()))
                        .collect();
                    for (j, &src) in candidates.iter().enumerate() {
                        let dst = candidates[perm[j]];
                        let Some(p) = params[j].as_ref() else {
                            continue;
                        };
                        let telemetry = &self.telemetry;
                        let swap_bytes = param_bytes(p.len());
                        let sctx = swap_span.ctx();
                        let del = fs.transmit(
                            src + 1,
                            dst + 1,
                            tick,
                            swap_bytes,
                            retries,
                            &self.stats,
                            Some(telemetry),
                            sctx,
                            |dup, sent| {
                                if !dup && sent != 0 {
                                    telemetry.trace_instant(
                                        SpanKind::Recv {
                                            from: (src + 1) as u32,
                                            bytes: swap_bytes,
                                        },
                                        Track::Worker((dst + 1) as u32),
                                        TraceCtx {
                                            trace: sctx.trace,
                                            span: sent,
                                        },
                                        tick,
                                    );
                                }
                            },
                        );
                        if del.delivered {
                            if let Some(w) = self.workers[dst].as_mut() {
                                w.set_disc_params(p);
                                self.telemetry.worker_swap_in(dst + 1);
                            }
                        } else if self.workers[dst].is_some() {
                            self.telemetry.event(Event::Custom {
                                name: "swap_timeout",
                                value: (dst + 1) as f64,
                            });
                        }
                    }
                    self.swaps += 1;
                    self.telemetry.event(Event::SwapDone {
                        iter: i,
                        moved: candidates.len(),
                    });
                }
                drop(swap_span);
            }
        }
        drop(root);
        self.iter += 1;
        self.telemetry.event(Event::IterDone {
            iter: i,
            alive: heard_count,
        });
    }

    /// Runs `iters` iterations, scoring the server generator every
    /// `eval_every` (iteration 0 included when an evaluator is given).
    pub fn train(
        &mut self,
        iters: usize,
        eval_every: usize,
        mut evaluator: Option<&mut Evaluator>,
    ) -> ScoreTimeline {
        let mut timeline = ScoreTimeline::new();
        if let Some(ev) = evaluator.as_deref_mut() {
            let span = self.telemetry.span(Phase::Eval);
            let s = ev.evaluate(&mut self.server.gen);
            drop(span);
            self.telemetry.event(Event::EvalDone {
                iter: self.iter,
                is_score: s.inception_score,
                fid: s.fid,
            });
            timeline.push(self.iter, s);
        }
        for i in 1..=iters {
            self.step();
            if let Some(ev) = evaluator.as_deref_mut() {
                if i % eval_every.max(1) == 0 || i == iters {
                    let span = self.telemetry.span(Phase::Eval);
                    let s = ev.evaluate(&mut self.server.gen);
                    drop(span);
                    self.telemetry.event(Event::EvalDone {
                        iter: self.iter,
                        is_score: s.inception_score,
                        fid: s.fid,
                    });
                    timeline.push(self.iter, s);
                }
            }
        }
        timeline
    }
}

impl crate::supervisor::Recoverable for MdGan {
    fn iteration(&self) -> u64 {
        self.iter as u64
    }

    fn capture(&self) -> crate::checkpoint::Checkpoint {
        self.checkpoint()
    }

    fn restore(&mut self, ck: &crate::checkpoint::Checkpoint) -> Result<(), TrainError> {
        MdGan::restore(self, ck)
    }

    /// MD-GAN's server never sees a scalar loss (workers ship gradients,
    /// not losses), so step health rides on the parameter scans alone.
    fn step_once(&mut self) -> Vec<f32> {
        self.step();
        Vec::new()
    }

    fn health_nets(&self) -> Vec<&md_nn::layers::Sequential> {
        let mut nets = vec![&self.server.gen.net];
        nets.extend(self.workers.iter().flatten().map(|w| w.disc_net()));
        nets
    }

    fn scale_lr(&mut self, factor: f32) {
        let lr = self.server.gen_lr();
        self.server.set_gen_lr(lr * factor);
        for w in self.workers.iter_mut().flatten() {
            w.scale_lr(factor);
        }
    }

    /// Corrupts one generator weight. The poison is outside the
    /// checkpointed state's causal past: replaying the same iterations
    /// from the last checkpoint without re-poisoning stays healthy.
    fn poison(&mut self) {
        self.server.gen.net.params_mut()[0].data_mut()[0] = f32::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GanHyper, KPolicy};
    use md_data::synthetic::mnist_like;
    use md_simnet::{CrashSchedule, LinkClass};

    fn build(workers: usize, k: KPolicy, swap: SwapPolicy, crash: CrashSchedule) -> MdGan {
        let data = mnist_like(12, workers * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(4);
        let shards = data.shard_iid(workers, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = MdGanConfig {
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
        MdGan::new(&spec, shards, cfg)
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
        let theta = md.workers[0].as_ref().unwrap().disc_params_len() as u64;
        assert_eq!(md.traffic().bytes(LinkClass::WorkerToWorker), 3 * theta * 4);
    }

    #[test]
    fn ring_swap_rotates_discriminators() {
        let mut md = build(3, KPolicy::One, SwapPolicy::Ring, CrashSchedule::none());
        let before: Vec<Vec<f32>> = (0..3)
            .map(|i| md.workers[i].as_ref().unwrap().disc_params())
            .collect();
        // Swap with no intermediate training: set interval to 1 by stepping
        // to the boundary (interval is 8; run 8 steps then compare — but
        // training changes params, so instead trigger the permutation path
        // directly).
        let perm = swap_permutation(SwapPolicy::Ring, 3, &mut Rng64::seed_from_u64(1)).unwrap();
        assert_eq!(perm, vec![1, 2, 0]);
        // Apply manually as the trainer would.
        for (j, p) in before.iter().enumerate() {
            md.workers[perm[j]].as_mut().unwrap().set_disc_params(p);
        }
        assert_eq!(md.workers[1].as_ref().unwrap().disc_params(), before[0]);
        assert_eq!(md.workers[2].as_ref().unwrap().disc_params(), before[1]);
        assert_eq!(md.workers[0].as_ref().unwrap().disc_params(), before[2]);
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
        use crate::byzantine::Attack;
        let honest = {
            let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
            md.step();
            md.gen_params()
        };
        let attacked = {
            let mut md =
                build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none()).with_attacks(
                    vec![Attack::SignFlip { scale: 1.0 }, Attack::None, Attack::None],
                );
            md.step();
            md.gen_params()
        };
        assert_ne!(honest, attacked);
    }

    #[test]
    fn median_aggregation_resists_an_inflater() {
        use crate::byzantine::{Aggregation, Attack};
        // One worker inflates its feedback by 1000x; with k=1 all three
        // workers share a batch, so the coordinate median ignores it.
        let run = |attacks: Vec<Attack>, agg: Aggregation| {
            let mut md = build(3, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none())
                .with_attacks(attacks)
                .with_aggregation(agg);
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
        for name in ["rng_server", "rng_swap", "alive", "adam_t", "traffic"] {
            assert!(ck.get_u64(name).is_some(), "missing {name}");
        }
        let snapshot = md.gen_params();
        for _ in 0..3 {
            md.step();
        }
        assert_ne!(md.gen_params(), snapshot);
        md.restore(&ck).unwrap();
        assert_eq!(md.gen_params(), snapshot);
        assert_eq!(md.iterations(), 3);
        // Serialization roundtrip too.
        let parsed = crate::checkpoint::Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(parsed, ck);
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        // Uninterrupted reference: 9 iterations (crossing the swap at 8).
        let mk = || {
            build(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
            )
        };
        let mut full = mk();
        for _ in 0..9 {
            full.step();
        }
        // Interrupted run: 5 iterations, checkpoint, then a *fresh* system
        // restores it and finishes the remaining 4.
        let mut first = mk();
        for _ in 0..5 {
            first.step();
        }
        let ck = crate::checkpoint::Checkpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
        drop(first);
        let mut resumed = mk();
        resumed.restore(&ck).unwrap();
        assert_eq!(resumed.iterations(), 5);
        for _ in 0..4 {
            resumed.step();
        }
        assert_eq!(resumed.gen_params(), full.gen_params());
        assert_eq!(resumed.swaps(), full.swaps());
        assert_eq!(resumed.traffic(), full.traffic());
        let discs = |md: &MdGan| -> Vec<Vec<f32>> {
            (0..3)
                .map(|i| md.workers[i].as_ref().unwrap().disc_params())
                .collect()
        };
        assert_eq!(discs(&resumed), discs(&full));
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
        let empty = crate::checkpoint::Checkpoint::new(0);
        let e = md.restore(&empty).unwrap_err();
        assert!(e.to_string().contains("generator"), "{e}");
        // Full checkpoint minus one required worker section.
        let ck = md.checkpoint();
        let mut partial = crate::checkpoint::Checkpoint::new(ck.iteration);
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
        let mut short = crate::checkpoint::Checkpoint::new(1);
        short.push("generator", vec![0.0; 3]);
        let e = md.restore(&short).unwrap_err();
        assert!(matches!(e, TrainError::Checkpoint(_)), "{e}");
    }

    #[test]
    fn legacy_v1_checkpoint_restores_params_and_alive_mask() {
        let mut md = build(2, KPolicy::One, SwapPolicy::Disabled, CrashSchedule::none());
        md.step();
        // A v1-era checkpoint: parameters only, worker 2 omitted (it was
        // dead at capture time).
        let mut ck = crate::checkpoint::Checkpoint::new(7);
        ck.push("generator", md.gen_params());
        ck.push("disc_1", md.workers[0].as_ref().unwrap().disc_params());
        let gen = md.gen_params();
        md.step();
        md.restore(&ck).unwrap();
        assert_eq!(md.gen_params(), gen);
        assert_eq!(md.iterations(), 7);
        assert_eq!(md.alive_workers(), vec![1]);
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
        use md_simnet::FaultPlan;
        let run = |robust: bool| {
            let mut md = build(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
            );
            if robust {
                md.cfg.robust.enabled = true;
                md.cfg.fault = FaultPlan::none();
                md.fault_state = Some(FaultState::new(FaultPlan::none(), 4));
            }
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
        use md_simnet::FaultPlan;
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
        use md_simnet::FaultPlan;
        let run = || {
            let mut md = build(
                3,
                KPolicy::LogN,
                SwapPolicy::Derangement,
                CrashSchedule::none(),
            );
            md.cfg.fault = FaultPlan::lossy(5, 0.1);
            md.fault_state = Some(FaultState::new(FaultPlan::lossy(5, 0.1), 4));
            for _ in 0..10 {
                md.step();
            }
            md.gen_params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn robust_silent_crash_is_suspected_not_oracled() {
        use md_simnet::FaultPlan;
        use md_telemetry::Counter;
        let rec = Arc::new(Recorder::enabled());
        let mut md = build(
            3,
            KPolicy::One,
            SwapPolicy::Disabled,
            CrashSchedule::new(vec![(2, 1)]),
        )
        .with_telemetry(Arc::clone(&rec));
        md.cfg.robust.enabled = true;
        md.cfg.robust.suspect_after = 2;
        md.cfg.robust.probe_period = 0;
        md.fault_state = Some(FaultState::new(FaultPlan::none(), 4));
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
            md.traffic().bytes(md_simnet::LinkClass::WorkerToServer)
                - link_to_2.bytes(md_simnet::LinkClass::WorkerToServer),
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
        let ck = crate::checkpoint::Checkpoint::from_bytes(&first.checkpoint().to_bytes()).unwrap();
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
        use md_simnet::FaultPlan;
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
        md.fault_state = Some(FaultState::new(FaultPlan::none(), 4));
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
        use md_simnet::FaultPlan;
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
