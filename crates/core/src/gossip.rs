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
use crate::config::FlGanConfig;
use crate::federation::{Federation, Mixing};
use md_data::Dataset;
use md_nn::gan::Generator;
use md_nn::param::average;
use md_simnet::ChurnPlan;
use md_telemetry::TraceCtx;
use md_tensor::rng::Rng64;

/// Pairwise gossip averaging: each alive worker pushes its `(G, D)` to a
/// random peer, which replaces its own pair with the average of the two.
pub struct Gossip {
    /// Key of the pairing streams: a round draws one derangement from
    /// stream `(key, 0, exchanges so far)`.
    key: u64,
}

/// The decentralized gossip-GAN system.
pub type GossipGan = Federation<Gossip>;

impl Mixing for Gossip {
    const QUORUM: usize = 2;
    const SERVER_STATE: bool = false;

    /// Each worker picks a random peer (derangement, so everyone is in
    /// exactly one directed exchange) and the pair averages both networks.
    /// Each exchange moves `|w| + |θ|` floats. All exchanges use the
    /// pre-round parameters (a synchronous gossip round, matching the
    /// emulation methodology).
    fn round(
        fed: &mut GossipGan,
        alive: &[usize],
        params: &[(Vec<f32>, Vec<f32>)],
        ctx: TraceCtx,
        tick: u64,
    ) {
        // The derangement runs over *positions in the alive view*, so the
        // pairing does not depend on which slots the members occupy. Each
        // round adds at least two exchanges, so no two share a stream.
        let perm = Rng64::keyed(fed.mixing.key, 0, fed.mixes).derangement(alive.len());
        for (spos, &dpos) in perm.iter().enumerate() {
            let (src, dst) = (alive[spos], alive[dpos]);
            let ((sg, sd), (dg, dd)) = (&params[spos], &params[dpos]);
            // src pushes to dst; dst's post state averages the two.
            fed.carry(src + 1, dst + 1, sg.len() + sd.len(), ctx, tick);
            fed.workers[dst].set_params(&average(&[sg, dg]), &average(&[sd, dd]));
            fed.mixes += 1;
        }
    }
}

impl Federation<Gossip> {
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
        let mut master = Rng64::seed_from_u64(cfg.seed ^ 0x605517);
        let observer = spec.build_generator(&mut master.fork(0));
        Federation::assemble(spec, shards, cfg, churn, observer, master, |master| {
            Gossip {
                key: master.next_u64(),
            }
        })
    }

    /// Pairwise parameter exchanges performed so far.
    pub fn exchanges(&self) -> u64 {
        self.mixes
    }

    /// The observer's averaged generator (refreshed on every call). Only
    /// currently-alive workers contribute.
    pub fn observer_generator(&mut self) -> &mut Generator {
        crate::supervisor::Recoverable::scored_generator(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::config::GanHyper;
    use md_data::synthetic::mnist_like;
    use md_nn::param::{l2_distance, param_bytes};
    use md_simnet::{ChurnEvent, ChurnKind, LinkClass};
    use md_telemetry::{Counter, Event, Phase, Recorder};
    use std::sync::Arc;

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
