//! The two averaging baselines' shared system: N workers, each training a
//! full local `(G, D)` pair on its shard exactly like a standalone GAN,
//! whose models a [`Mixing`] rule averages every `m·E/b` local iterations —
//! FedAvg through a server for FL-GAN ([`crate::flgan`]), pairwise
//! averaging between peers for gossip GAN ([`crate::gossip`]).
//!
//! Everything but the round itself is written once here: membership churn,
//! the parallel local step, scoring, checkpointing and recovery. Every
//! transfer goes through [`Wire`], so it is charged, counted and traced the
//! way MD-GAN's messages are.

use crate::arch::{build_slots, ArchSpec};
use crate::checkpoint::Checkpoint;
use crate::config::FlGanConfig;
use crate::error::{ckerr, TrainError};
use crate::standalone::StandaloneGan;
use md_data::Dataset;
use md_nn::gan::Generator;
use md_nn::param::{average, param_bytes};
use md_simnet::{
    ChurnEvent, ChurnKind, ChurnPlan, MemberStatus, Membership, TrafficReport, TrafficStats, Wire,
};
use md_telemetry::{Event, Phase, Recorder, TraceCtx, Track};
use md_tensor::parallel::{parallel_for_each_mut, PAR_THRESHOLD};
use md_tensor::rng::Rng64;
use std::sync::Arc;

/// How a federation mixes its workers' models when a round is due.
pub trait Mixing: Sized {
    /// Fewest alive workers a round needs. Below it the round is skipped
    /// silently: no span, no transfer, no `RoundDone`.
    const QUORUM: usize;
    /// `true`: `server_gen` is the rule's own state (FedAvg's averaged
    /// model), checkpointed, health-scanned and scored as it stands.
    /// `false`: it is an observer's view, the average of the alive workers'
    /// generators, refreshed before every score and never stored.
    const SERVER_STATE: bool;

    /// Mixes the alive workers. `params[i]` is the pre-round `(G, D)` of
    /// slot `alive[i]`; transfers go through `Federation::carry` under
    /// `ctx` at virtual time `tick`.
    fn round(
        fed: &mut Federation<Self>,
        alive: &[usize],
        params: &[(Vec<f32>, Vec<f32>)],
        ctx: TraceCtx,
        tick: u64,
    );
}

/// N local GANs plus periodic averaging; see [`crate::flgan::FlGan`] and
/// [`crate::gossip::GossipGan`] for the two rules.
pub struct Federation<M: Mixing> {
    pub(crate) workers: Vec<StandaloneGan>,
    /// FL-GAN: the server's averaged generator. Gossip: the observer's
    /// average of the alive workers (refreshed before scoring). Scored in
    /// the experiments.
    pub server_gen: Generator,
    pub(crate) mixing: M,
    /// FedAvg rounds or gossip exchanges completed.
    pub(crate) mixes: u64,
    cfg: FlGanConfig,
    churn: ChurnPlan,
    membership: Membership,
    stats: TrafficStats,
    round_interval: usize,
    iter: usize,
    telemetry: Arc<Recorder>,
}

impl<M: Mixing> Federation<M> {
    /// Builds one local GAN per shard, slot `i` seeded from
    /// `master.fork(1 + i)`, around `server_gen`; `mixing` then makes the
    /// rule from what is left of `master`. `shards` must cover every worker
    /// that will *ever* exist (initial members plus planned joiners);
    /// joiner slots sit idle until their join fires.
    pub(crate) fn assemble(
        spec: &ArchSpec,
        shards: Vec<Dataset>,
        cfg: FlGanConfig,
        churn: ChurnPlan,
        server_gen: Generator,
        mut master: Rng64,
        mixing: impl FnOnce(&mut Rng64) -> M,
    ) -> Self {
        assert!(cfg.workers > 0, "a federation needs at least one worker");
        let churn = ChurnPlan::from_events(cfg.workers, churn.events().to_vec())
            .expect("invalid churn plan");
        let total = churn.max_workers(cfg.workers);
        assert_eq!(
            shards.len(),
            total,
            "one shard per worker (including planned joiners) required"
        );
        let round_interval = cfg.round_interval(shards[0].len());
        let workers = build_slots(shards, &mut master, |_, shard, rng| {
            StandaloneGan::new(spec, shard, cfg.hyper, rng)
        });
        Federation {
            workers,
            server_gen,
            mixing: mixing(&mut master),
            mixes: 0,
            membership: Membership::new(cfg.workers, total),
            stats: TrafficStats::new(1 + total),
            cfg,
            churn,
            round_interval,
            iter: 0,
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

    /// Local iterations between rounds (`m·E/b`).
    pub fn round_interval(&self) -> usize {
        self.round_interval
    }

    /// Local iterations performed (per worker).
    pub fn iterations(&self) -> usize {
        self.iter
    }

    /// Traffic snapshot.
    pub fn traffic(&self) -> TrafficReport {
        self.stats.report()
    }

    /// The current membership view (epoch-numbered; all-alive when no
    /// churn plan is attached).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Carries one worker's `(G, D)` pair — `floats` parameters — from
    /// node `from` to node `to` over the reliable wire; returns its bytes.
    pub(crate) fn carry(
        &self,
        from: usize,
        to: usize,
        floats: usize,
        ctx: TraceCtx,
        tick: u64,
    ) -> u64 {
        let bytes = param_bytes(floats);
        let wire = Wire {
            stats: &self.stats,
            faults: None,
            retries: 0,
            telemetry: &self.telemetry,
        };
        wire.carry(from, to, bytes, tick, ctx);
        bytes
    }

    /// One local iteration on every alive worker; a round when due. Churn
    /// events scheduled for this iteration fire first.
    pub fn step(&mut self) {
        let tick = self.iter as u64;
        let telemetry = Arc::clone(&self.telemetry);
        let root = telemetry.trace_root(tick);
        let rctx = root.ctx();
        let events: Vec<ChurnEvent> = self.churn.events_at(self.iter).copied().collect();
        for ev in events {
            self.apply_churn(ev, rctx, tick);
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
        telemetry.event(Event::IterDone {
            iter: self.iter - 1,
            alive: self.membership.alive_count(),
        });
        if self.iter.is_multiple_of(self.round_interval) {
            let alive = self.membership.alive();
            if alive.len() >= M::QUORUM {
                let span = telemetry.span_at(Phase::Comm, Track::Server, rctx, tick);
                let params: Vec<_> = alive.iter().map(|&s| self.workers[s].params()).collect();
                M::round(self, &alive, &params, span.ctx(), tick);
                drop(span);
                telemetry.event(Event::RoundDone {
                    round: self.iter / self.round_interval - 1,
                });
            }
        }
    }

    /// Applies one membership transition. A joiner bootstraps by copying
    /// both networks from its lowest-id alive peer — a real peer-to-peer
    /// transfer at full parameter cost on the W→W link (there is no server
    /// snapshot to copy). With no alive peer the joiner keeps its fresh
    /// deterministic initialization.
    fn apply_churn(&mut self, ev: ChurnEvent, ctx: TraceCtx, tick: u64) {
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
                    let bytes = self.carry(src + 1, slot + 1, g.len() + d.len(), ctx, tick);
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

    /// Captures the full state: the server's averaged generator (FL-GAN),
    /// the mix counter (which keys gossip's pairing draws), the traffic
    /// counters, the membership view when churn is planned, and every
    /// worker's complete local trainer (nested v2 checkpoint: params, Adam
    /// moments, iteration).
    pub fn checkpoint(&self) -> Checkpoint {
        let mut ck = Checkpoint::new(self.iter as u64);
        if M::SERVER_STATE {
            ck.push("server_gen", self.server_gen.net.get_params_flat());
        }
        ck.push_u64("counters", vec![self.mixes]);
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
        if M::SERVER_STATE {
            let sg = ck
                .require_len("server_gen", self.server_gen.num_params())
                .map_err(ckerr)?;
            self.server_gen.net.set_params_flat(sg);
        }
        self.mixes = ck.require_u64_len("counters", 1).map_err(ckerr)?[0];
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
        for (i, w) in self.workers.iter_mut().enumerate() {
            let raw = ck.require_bytes(&format!("worker_{i}")).map_err(ckerr)?;
            w.restore(&Checkpoint::from_bytes(raw)?)?;
        }
        self.iter = ck.iteration as usize;
        Ok(())
    }
}

impl<M: Mixing> crate::supervisor::Recoverable for Federation<M> {
    fn iteration(&self) -> u64 {
        self.iter as u64
    }

    fn capture(&self) -> Checkpoint {
        self.checkpoint()
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
        Federation::restore(self, ck)
    }

    fn step_once(&mut self) -> Vec<f32> {
        self.step();
        Vec::new()
    }

    fn health_nets(&self) -> Vec<&md_nn::layers::Sequential> {
        let mut nets = Vec::with_capacity(1 + 2 * self.workers.len());
        if M::SERVER_STATE {
            nets.push(&self.server_gen.net);
        }
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

    /// `server_gen`, first refreshed to the alive workers' average when it
    /// is an observer's view. Departed peers hold stale parameters and
    /// pending joiners untrained ones, so only alive workers contribute.
    fn scored_generator(&mut self) -> &mut Generator {
        if !M::SERVER_STATE {
            let gens: Vec<Vec<f32>> = self
                .membership
                .alive()
                .into_iter()
                .map(|s| self.workers[s].gen.net.get_params_flat())
                .collect();
            self.server_gen.net.set_params_flat(&average(&gens));
        }
        &mut self.server_gen
    }

    /// Poisons one worker's generator; the next average spreads the NaN,
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
    use crate::flgan::FlGan;
    use crate::gossip::GossipGan;
    use md_data::synthetic::mnist_like;
    use md_telemetry::{Counter, SpanKind};

    fn shards(total: usize) -> Vec<Dataset> {
        mnist_like(12, total * 16, 5, 0.08).shard_iid(total, &mut Rng64::seed_from_u64(5))
    }

    fn cfg() -> FlGanConfig {
        FlGanConfig {
            workers: 4,
            epochs_per_round: 1.0,
            hyper: GanHyper {
                batch: 4,
                ..GanHyper::default()
            },
            iterations: 9,
            seed: 21,
        }
    }

    /// Nine traced steps (two rounds); every message counted and every byte
    /// charged must be a traced `Send`.
    fn assert_fully_traced<M: Mixing>(name: &str, fed: Federation<M>) {
        let rec = Arc::new(Recorder::traced());
        let mut fed = fed.with_telemetry(Arc::clone(&rec));
        for _ in 0..9 {
            fed.step();
        }
        let sends: Vec<u64> = rec
            .trace_spans()
            .iter()
            .filter_map(|s| match s.kind {
                SpanKind::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(
            sends.len() as u64,
            rec.counter(Counter::MsgsSent),
            "{name}: messages"
        );
        assert_eq!(
            sends.iter().sum::<u64>(),
            fed.traffic().total_bytes(),
            "{name}: bytes"
        );
    }

    #[test]
    fn every_charged_transfer_is_traced() {
        let spec = ArchSpec::mlp_mnist_scaled(12);
        assert_fully_traced("FL-GAN", FlGan::new(&spec, shards(4), cfg()));
        assert_fully_traced("gossip", GossipGan::new(&spec, shards(4), cfg()));
        // Worker 5 joins at 2 (bootstrapped from worker 1), worker 2 leaves
        // at 3, worker 3 crashes at 5.
        let ev = |iter, worker, kind| ChurnEvent { iter, worker, kind };
        let churn = vec![
            ev(2, 5, ChurnKind::Join),
            ev(3, 2, ChurnKind::Leave),
            ev(5, 3, ChurnKind::Crash),
        ];
        let churn = ChurnPlan::from_events(4, churn).unwrap();
        let elastic = GossipGan::new_elastic(&spec, shards(5), cfg(), churn);
        assert_fully_traced("elastic gossip", elastic);
    }
}
