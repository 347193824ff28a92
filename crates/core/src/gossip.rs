//! Gossip GAN — the fully decentralized baseline of the authors' prior
//! position paper ("Gossiping GANs", DIDL'18, reference \[24\]), which §VI
//! summarizes:
//!
//! > "In this fully decentralized setup where compute nodes exchange their
//! > generators and discriminators in a gossip fashion (there are n couples
//! > of generator and discriminators, one per worker), the experiment
//! > results are favorable to federated learning. We then propose MD-GAN
//! > as a solution for a performance gain over federated learning."
//!
//! Implemented so the repository can reproduce that motivating comparison:
//! every worker trains a full local GAN; every `E` epochs each worker picks
//! a random peer and the pair *averages* both networks (push-pull gossip
//! averaging). There is no server at all; scoring uses the average of all
//! worker generators (an external observer's view).

use crate::arch::ArchSpec;
use crate::checkpoint::Checkpoint;
use crate::config::FlGanConfig;
use crate::error::{ckerr, TrainError};
use crate::eval::{Evaluator, ScoreTimeline};
use crate::standalone::StandaloneGan;
use md_data::Dataset;
use md_nn::gan::Generator;
use md_nn::param::{average, param_bytes};
use md_simnet::{
    ChurnEvent, ChurnKind, ChurnPlan, MemberStatus, Membership, TrafficReport, TrafficStats,
};
use md_telemetry::{Counter, Event, Phase, Recorder, SpanKind, TraceCtx, Track};
use md_tensor::parallel::{parallel_for_each_mut, PAR_THRESHOLD};
use md_tensor::rng::Rng64;
use std::sync::Arc;

/// The decentralized gossip-GAN system.
pub struct GossipGan {
    workers: Vec<StandaloneGan>,
    /// A scoring-only generator holding the current all-worker average.
    observer_gen: Generator,
    cfg: FlGanConfig,
    churn: ChurnPlan,
    membership: Membership,
    stats: TrafficStats,
    gossip_rng: Rng64,
    round_interval: usize,
    iter: usize,
    exchanges: u64,
    telemetry: Arc<Recorder>,
}

impl GossipGan {
    /// Builds N independent local GANs (no initial synchronization — the
    /// gossip protocol has no coordinator to broadcast from).
    pub fn new(spec: &ArchSpec, shards: Vec<Dataset>, cfg: FlGanConfig) -> Self {
        Self::new_elastic(spec, shards, cfg, ChurnPlan::none())
    }

    /// Builds an elastic gossip system whose membership follows `churn`.
    /// `shards` must cover every worker that will *ever* exist (initial
    /// members plus planned joiners); joiner slots sit idle (`Pending`,
    /// never trained, never gossiped with) until their join fires.
    pub fn new_elastic(
        spec: &ArchSpec,
        shards: Vec<Dataset>,
        cfg: FlGanConfig,
        churn: ChurnPlan,
    ) -> Self {
        let churn = ChurnPlan::from_events(cfg.workers, churn.events().to_vec())
            .expect("invalid churn plan");
        let total = churn.max_workers(cfg.workers);
        assert_eq!(
            shards.len(),
            total,
            "one shard per worker (including planned joiners) required"
        );
        assert!(cfg.workers > 0, "gossip GAN needs at least one worker");
        let mut master = Rng64::seed_from_u64(cfg.seed ^ 0x605517);
        let shard_size = shards[0].len();
        let mut obs_rng = master.fork(0);
        let observer_gen = spec.build_generator(&mut obs_rng);
        let workers: Vec<StandaloneGan> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut wrng = master.fork(1 + i as u64);
                StandaloneGan::new(spec, shard, cfg.hyper, &mut wrng)
            })
            .collect();
        let round_interval = cfg.round_interval(shard_size);
        let stats = TrafficStats::new(1 + total);
        let gossip_rng = master.fork(0x605);
        let membership = Membership::new(cfg.workers, total);
        GossipGan {
            workers,
            observer_gen,
            cfg,
            churn,
            membership,
            stats,
            gossip_rng,
            round_interval,
            iter: 0,
            exchanges: 0,
            telemetry: Arc::new(Recorder::disabled()),
        }
    }

    /// Attaches a telemetry recorder (the default is a disabled no-op one).
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.telemetry = recorder;
        self
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Arc<Recorder> {
        &self.telemetry
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &FlGanConfig {
        &self.cfg
    }

    /// Local iterations between gossip rounds.
    pub fn round_interval(&self) -> usize {
        self.round_interval
    }

    /// Pairwise parameter exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Local iterations performed (per worker).
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Traffic snapshot (all of it is worker↔worker).
    pub fn traffic(&self) -> TrafficReport {
        self.stats.report()
    }

    /// The current membership view (epoch-numbered; all-alive when no
    /// churn plan is attached).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The observer's averaged generator (refreshed lazily on evaluation).
    /// Only currently-alive workers contribute: departed peers hold stale
    /// parameters and pending joiners hold untrained ones.
    pub fn observer_generator(&mut self) -> &mut Generator {
        let gens: Vec<Vec<f32>> = self
            .membership
            .alive()
            .into_iter()
            .map(|s| self.workers[s].params().0)
            .collect();
        self.observer_gen.net.set_params_flat(&average(&gens));
        &mut self.observer_gen
    }

    /// One local iteration on every alive worker; a gossip round when due.
    /// Churn events scheduled for this iteration fire first (there is no
    /// server to sequence them, so all kinds apply at the step boundary).
    pub fn step(&mut self) {
        let tick = self.iter as u64;
        let telemetry = Arc::clone(&self.telemetry);
        let root = telemetry.trace_root(tick);
        let rctx = root.ctx();
        let events: Vec<ChurnEvent> = self.churn.events_at(self.iter).copied().collect();
        for ev in events {
            self.apply_churn(ev);
        }
        let span = telemetry.span_at(Phase::LocalTrain, Track::Server, rctx, tick);
        // The local steps share nothing, so the alive workers run side by
        // side.
        let mut alive: Vec<(usize, &mut StandaloneGan)> = self
            .workers
            .iter_mut()
            .enumerate()
            .filter(|(slot, _)| self.membership.is_alive(*slot))
            .collect();
        parallel_for_each_mut(&mut alive, PAR_THRESHOLD, |_, (slot, w)| {
            w.step();
            telemetry.worker_local_step(1 + *slot);
        });
        drop(span);
        self.iter += 1;
        self.telemetry.event(Event::IterDone {
            iter: self.iter - 1,
            alive: self.membership.alive_count(),
        });
        if self.iter.is_multiple_of(self.round_interval) {
            self.gossip_round(rctx, tick);
        }
    }

    /// Applies one membership transition. A joiner bootstraps by copying
    /// both networks from its lowest-id alive peer — a real peer-to-peer
    /// transfer charged at full parameter cost on the W→W link (gossip has
    /// no server to hold a snapshot). With no alive peer the joiner keeps
    /// its fresh deterministic initialization.
    fn apply_churn(&mut self, ev: ChurnEvent) {
        let slot = ev.worker - 1;
        self.membership
            .apply(&ev)
            .expect("churn plan validated at construction");
        match ev.kind {
            ChurnKind::Crash => {
                self.telemetry.event(Event::WorkerFault {
                    iter: self.iter,
                    worker: slot + 1,
                });
            }
            ChurnKind::Join => {
                self.telemetry.event(Event::WorkerJoined {
                    iter: self.iter,
                    worker: slot + 1,
                });
                if let Some(src) = self.membership.alive().into_iter().find(|&s| s != slot) {
                    let (g, d) = self.workers[src].params();
                    let bytes = param_bytes(g.len() + d.len());
                    self.stats.record(src + 1, slot + 1, bytes);
                    self.telemetry.incr(Counter::MsgsSent, 1);
                    self.telemetry.incr(Counter::BytesSent, bytes);
                    self.workers[slot].set_params(&g, &d);
                    self.telemetry.event(Event::BootstrapDone {
                        iter: self.iter,
                        worker: slot + 1,
                        bytes,
                    });
                }
            }
            ChurnKind::Leave => {
                self.stats.retire(slot + 1);
                self.telemetry.event(Event::WorkerLeft {
                    iter: self.iter,
                    worker: slot + 1,
                });
            }
        }
    }

    /// Each worker picks a random peer (derangement, so everyone is in
    /// exactly one directed exchange) and the pair averages both networks.
    /// Each exchange moves `|w| + |θ|` floats in each direction.
    fn gossip_round(&mut self, rctx: TraceCtx, tick: u64) {
        let alive = self.membership.alive();
        let n = alive.len();
        if n < 2 {
            return;
        }
        let span = self
            .telemetry
            .span_at(Phase::Comm, Track::Server, rctx, tick);
        let cctx = span.ctx();
        // The derangement runs over *positions in the alive view*, so the
        // pairing RNG consumes exactly one draw per round regardless of
        // which slots the members occupy (and is unchanged from the fixed-
        // membership behaviour when no churn plan is attached).
        let perm = self.gossip_rng.derangement(n);
        // Snapshot first: all exchanges use pre-round parameters (a
        // synchronous gossip round, matching the emulation methodology).
        let params: Vec<(Vec<f32>, Vec<f32>)> =
            alive.iter().map(|&s| self.workers[s].params()).collect();
        for (spos, &dpos) in perm.iter().enumerate() {
            let (src, dst) = (alive[spos], alive[dpos]);
            let (sg, sd) = &params[spos];
            let (dg, dd) = &params[dpos];
            // src pushes to dst; dst's post state averages the two.
            let bytes = param_bytes(sg.len() + sd.len());
            self.stats.record(src + 1, dst + 1, bytes);
            self.telemetry.incr(Counter::MsgsSent, 1);
            self.telemetry.incr(Counter::BytesSent, bytes);
            let sent = self.telemetry.trace_instant(
                SpanKind::Send {
                    to: (dst + 1) as u32,
                    bytes,
                    attempt: 1,
                },
                Track::Worker((src + 1) as u32),
                cctx,
                tick,
            );
            self.telemetry.trace_instant(
                SpanKind::Recv {
                    from: (src + 1) as u32,
                    bytes,
                },
                Track::Worker((dst + 1) as u32),
                TraceCtx {
                    trace: cctx.trace,
                    span: sent,
                },
                tick,
            );
            let new_gen = average(&[sg.clone(), dg.clone()]);
            let new_disc = average(&[sd.clone(), dd.clone()]);
            self.workers[dst].set_params(&new_gen, &new_disc);
            self.exchanges += 1;
        }
        drop(span);
        self.telemetry.event(Event::RoundDone {
            round: (self.iter / self.round_interval) - 1,
        });
    }

    /// Runs `iters` local iterations, scoring the averaged observer
    /// generator every `eval_every`.
    pub fn train(
        &mut self,
        iters: usize,
        eval_every: usize,
        mut evaluator: Option<&mut Evaluator>,
    ) -> ScoreTimeline {
        let telemetry = Arc::clone(&self.telemetry);
        let mut timeline = ScoreTimeline::new();
        for i in 0..=iters {
            if i > 0 {
                self.step();
            }
            if let Some(ev) = evaluator.as_deref_mut() {
                if i % eval_every.max(1) == 0 || i == iters {
                    let at = self.iter;
                    ev.score_point(self.observer_generator(), at, &telemetry, &mut timeline);
                }
            }
        }
        timeline
    }

    /// Captures the full decentralized state: every worker's complete
    /// local trainer (nested v2 checkpoint), the gossip pairing RNG,
    /// exchange counter and traffic counters. The observer generator is
    /// derived (it is recomputed on every evaluation) and not stored.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new(self.iter as u64);
        ck.push_u64("rng_gossip", self.gossip_rng.state_words().to_vec());
        ck.push_u64("counters", vec![self.exchanges]);
        ck.push_u64("traffic", self.stats.state_words());
        if !self.churn.is_none() {
            // Membership only exists as a section when a churn plan is
            // attached, keeping churn-free checkpoints byte-identical to
            // the pre-elastic format.
            ck.push_u64("membership", self.membership.state_words());
        }
        for (i, w) in self.workers.iter().enumerate() {
            ck.push_bytes(format!("worker_{i}"), w.checkpoint().to_bytes().to_vec());
        }
        ck
    }

    /// Restores a checkpoint taken by [`checkpoint`](Self::checkpoint).
    /// Missing or length-mismatched sections are errors, not silent skips.
    pub fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        for (i, w) in self.workers.iter_mut().enumerate() {
            let raw = ck.require_bytes(&format!("worker_{i}")).map_err(ckerr)?;
            let inner = Checkpoint::from_bytes(raw)?;
            w.restore(&inner)?;
        }
        let words = ck
            .require_u64_len("rng_gossip", Rng64::STATE_WORDS)
            .map_err(ckerr)?;
        self.gossip_rng = Rng64::from_state_words(std::array::from_fn(|i| words[i]));
        let counters = ck.require_u64_len("counters", 1).map_err(ckerr)?;
        self.exchanges = counters[0];
        self.stats
            .load_state_words(ck.require_u64("traffic").map_err(ckerr)?)
            .map_err(TrainError::Checkpoint)?;
        if !self.churn.is_none() {
            self.membership
                .load_state_words(ck.require_u64("membership").map_err(ckerr)?)
                .map_err(TrainError::Checkpoint)?;
            // Traffic retirement is derived state: re-freeze departed slots.
            for slot in 0..self.workers.len() {
                if self.membership.status(slot) == MemberStatus::Left {
                    self.stats.retire(slot + 1);
                }
            }
        }
        self.iter = ck.iteration as usize;
        Ok(())
    }
}

impl crate::supervisor::Recoverable for GossipGan {
    fn iteration(&self) -> u64 {
        self.iter as u64
    }

    fn capture(&self) -> Checkpoint {
        self.checkpoint()
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        GossipGan::restore(self, ck)
    }

    fn step_once(&mut self) -> Vec<f32> {
        self.step();
        Vec::new()
    }

    fn health_nets(&self) -> Vec<&md_nn::layers::Sequential> {
        let mut nets = Vec::with_capacity(2 * self.workers.len());
        for w in &self.workers {
            nets.push(&w.gen.net);
            nets.push(&w.disc.net);
        }
        nets
    }

    fn scale_lr(&mut self, factor: f32) {
        for w in &mut self.workers {
            w.scale_lr(factor);
        }
    }

    /// Poisons one worker's generator; gossip averaging spreads the NaN,
    /// exercising cross-node divergence detection.
    fn poison(&mut self) {
        use md_nn::layer::Layer;
        self.workers[0].gen.net.params_mut()[0].data_mut()[0] = f32::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GanHyper;
    use md_data::synthetic::mnist_like;
    use md_nn::param::l2_distance;
    use md_simnet::LinkClass;

    fn tiny(workers: usize) -> GossipGan {
        let data = mnist_like(12, workers * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(9);
        let shards = data.shard_iid(workers, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = FlGanConfig {
            workers,
            epochs_per_round: 1.0,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 64,
            seed: 5,
        };
        GossipGan::new(&spec, shards, cfg)
    }

    #[test]
    fn workers_start_unsynchronized() {
        let g = tiny(3);
        let (a, _) = g.workers[0].params();
        let (b, _) = g.workers[1].params();
        assert_ne!(a, b, "gossip has no initial broadcast");
    }

    #[test]
    fn gossip_round_mixes_parameters() {
        let mut g = tiny(3);
        let before: Vec<Vec<f32>> = g.workers.iter().map(|w| w.params().0).collect();
        for _ in 0..g.round_interval() {
            g.step();
        }
        assert_eq!(g.exchanges(), 3);
        // Every worker moved, and pairwise distances shrank on average
        // relative to pure local training (mixing).
        let after: Vec<Vec<f32>> = g.workers.iter().map(|w| w.params().0).collect();
        for (b, a) in before.iter().zip(&after) {
            assert_ne!(b, a);
        }
    }

    #[test]
    fn all_traffic_is_worker_to_worker() {
        let mut g = tiny(4);
        for _ in 0..g.round_interval() {
            g.step();
        }
        let r = g.traffic();
        assert_eq!(r.bytes(LinkClass::ServerToWorker), 0);
        assert_eq!(r.bytes(LinkClass::WorkerToServer), 0);
        let per_msg = param_bytes(g.workers[0].params().0.len() + g.workers[0].params().1.len());
        assert_eq!(r.bytes(LinkClass::WorkerToWorker), 4 * per_msg);
    }

    #[test]
    fn observer_is_the_average() {
        let mut g = tiny(2);
        let (a, _) = g.workers[0].params();
        let (b, _) = g.workers[1].params();
        let expect: Vec<f32> = a.iter().zip(&b).map(|(x, y)| (x + y) / 2.0).collect();
        let obs = g.observer_generator().net.get_params_flat();
        assert!(l2_distance(&obs, &expect) < 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut g = tiny(3);
            for _ in 0..10 {
                g.step();
            }
            g.observer_generator().net.get_params_flat()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resume_from_checkpoint_is_bit_identical() {
        let mut full = tiny(3);
        for _ in 0..12 {
            full.step();
        }

        let mut first = tiny(3);
        for _ in 0..9 {
            first.step();
        }
        let bytes = first.checkpoint().to_bytes();
        drop(first);

        let mut resumed = tiny(3);
        resumed
            .restore(&Checkpoint::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(resumed.iterations(), 9);
        assert_eq!(resumed.exchanges(), 3); // one round at iter 8
        for _ in 0..3 {
            resumed.step();
        }
        assert_eq!(
            resumed.observer_generator().net.get_params_flat(),
            full.observer_generator().net.get_params_flat()
        );
        assert_eq!(resumed.exchanges(), full.exchanges());
        assert_eq!(resumed.traffic(), full.traffic());
    }

    #[test]
    fn telemetry_counts_gossip_rounds() {
        let rec = Arc::new(Recorder::enabled());
        let mut g = tiny(3).with_telemetry(Arc::clone(&rec));
        for _ in 0..g.round_interval() {
            g.step();
        }
        assert_eq!(rec.phase_stats(Phase::LocalTrain).count, 8);
        assert_eq!(rec.phase_stats(Phase::Comm).count, 1);
        // One directed exchange per worker per round.
        assert_eq!(rec.counter(Counter::MsgsSent), 3);
        assert_eq!(rec.counter(Counter::BytesSent), g.traffic().total_bytes());
        assert!(rec
            .events()
            .iter()
            .any(|e| e.event == Event::RoundDone { round: 0 }));
    }

    fn tiny_elastic() -> GossipGan {
        let events = vec![
            ChurnEvent {
                iter: 2,
                worker: 4,
                kind: ChurnKind::Join,
            },
            ChurnEvent {
                iter: 5,
                worker: 1,
                kind: ChurnKind::Crash,
            },
            ChurnEvent {
                iter: 9,
                worker: 2,
                kind: ChurnKind::Leave,
            },
        ];
        let churn = ChurnPlan::from_events(3, events).unwrap();
        let total = churn.max_workers(3);
        let data = mnist_like(12, total * 32, 1, 0.08);
        let mut rng = Rng64::seed_from_u64(9);
        let shards = data.shard_iid(total, &mut rng);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let cfg = FlGanConfig {
            workers: 3,
            epochs_per_round: 0.5,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 64,
            seed: 5,
        };
        GossipGan::new_elastic(&spec, shards, cfg, churn)
    }

    #[test]
    fn elastic_churn_evolves_view_and_pairs_alive_only() {
        let rec = Arc::new(Recorder::enabled());
        let mut g = tiny_elastic().with_telemetry(Arc::clone(&rec));
        assert_eq!(g.round_interval(), 4);
        for _ in 0..12 {
            g.step();
        }
        use md_simnet::MemberStatus;
        assert_eq!(g.membership().status(0), MemberStatus::Crashed);
        assert_eq!(g.membership().status(1), MemberStatus::Left);
        assert_eq!(g.membership().status(3), MemberStatus::Alive);
        assert_eq!(g.membership().alive(), vec![2, 3]);
        assert_eq!(g.membership().epoch(), 3);
        // Rounds at 4 (4 alive), 8 (3 alive), 12 (2 alive).
        assert_eq!(g.exchanges(), 9);
        assert_eq!(rec.counter(Counter::WorkersJoined), 1);
        assert_eq!(rec.counter(Counter::WorkersLeft), 1);
        assert_eq!(rec.counter(Counter::Bootstraps), 1);
        // The bootstrap transfer is a real W→W charge: one extra message
        // of (|w| + |θ|) parameters on top of the 9 exchanges.
        let per_msg = param_bytes(g.workers[2].params().0.len() + g.workers[2].params().1.len());
        assert_eq!(g.traffic().bytes(LinkClass::WorkerToWorker), 10 * per_msg);
        assert!(rec.events().iter().any(|e| matches!(
            e.event,
            Event::BootstrapDone {
                iter: 2,
                worker: 4,
                ..
            }
        )));
    }

    #[test]
    fn elastic_run_is_deterministic_and_resumable() {
        let run = |steps: usize| {
            let mut g = tiny_elastic();
            for _ in 0..steps {
                g.step();
            }
            g
        };
        let mut full = run(12);
        let mut again = run(12);
        assert_eq!(
            full.observer_generator().net.get_params_flat(),
            again.observer_generator().net.get_params_flat()
        );

        let first = run(6);
        let ck = first.checkpoint();
        assert!(ck.get_u64("membership").is_some());
        let bytes = ck.to_bytes();
        drop(first);
        let mut resumed = tiny_elastic();
        resumed
            .restore(&Checkpoint::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(resumed.membership().alive(), vec![1, 2, 3]);
        for _ in 0..6 {
            resumed.step();
        }
        assert_eq!(
            resumed.observer_generator().net.get_params_flat(),
            full.observer_generator().net.get_params_flat()
        );
        assert_eq!(resumed.traffic(), full.traffic());
        assert_eq!(resumed.membership(), full.membership());
    }

    #[test]
    fn churn_free_elastic_matches_plain_byte_for_byte() {
        let build_plain = || tiny(3);
        let build_none = || {
            let data = mnist_like(12, 3 * 32, 1, 0.08);
            let mut rng = Rng64::seed_from_u64(9);
            let shards = data.shard_iid(3, &mut rng);
            let spec = ArchSpec::mlp_mnist_scaled(12);
            let cfg = FlGanConfig {
                workers: 3,
                epochs_per_round: 1.0,
                hyper: GanHyper {
                    batch: 4,
                    ..GanHyper::default()
                },
                iterations: 64,
                seed: 5,
            };
            GossipGan::new_elastic(&spec, shards, cfg, ChurnPlan::none())
        };
        let mut a = build_plain();
        let mut b = build_none();
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(
            a.observer_generator().net.get_params_flat(),
            b.observer_generator().net.get_params_flat()
        );
        assert_eq!(a.traffic(), b.traffic());
        assert_eq!(a.checkpoint().to_bytes(), b.checkpoint().to_bytes());
    }

    #[test]
    fn single_worker_never_gossips() {
        let mut g = tiny(1);
        for _ in 0..10 {
            g.step();
        }
        assert_eq!(g.exchanges(), 0);
        assert_eq!(g.traffic().total_bytes(), 0);
    }
}
