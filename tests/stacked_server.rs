//! The MD-GAN server runs its `k` generated batches as one stack: one
//! `k·b`-row generator forward and one `k·b`-row backward per synchronous
//! iteration, never a replay — counted here by an identity layer appended
//! to the generator. A consequence that is pinned as well: the generator's
//! BatchNorm running statistics take one EMA step per generated batch, as
//! they do in `StandaloneGan` and `FlGan`, not two.

use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::{cifar_like, mnist_like};
use mdgan_repro::nn::{Layer, Need};
use mdgan_repro::simnet::FaultPlan;
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::Tensor;
use std::sync::{Arc, Mutex};

/// What the generator was asked to do, in call order.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Call {
    Forward { rows: usize, groups: usize },
    Backward { rows: usize },
}

/// The identity, keeping a record of its calls.
struct Probe(Arc<Mutex<Vec<Call>>>);

impl Layer for Probe {
    fn forward_stacked(&mut self, x: &Tensor, groups: usize, _train: bool) -> Tensor {
        let rows = x.shape()[0];
        self.0.lock().unwrap().push(Call::Forward { rows, groups });
        x.clone()
    }

    fn backprop(&mut self, grad_out: &Tensor, need: Need) -> Option<Tensor> {
        let rows = grad_out.shape()[0];
        self.0.lock().unwrap().push(Call::Backward { rows });
        need.input().then(|| grad_out.clone())
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![]
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> String {
        "Probe".into()
    }
}

const WORKERS: usize = 4; // k = ⌊log₂ 4⌋ = 2
const BATCH: usize = 4;

fn cfg() -> MdGanConfig {
    MdGanConfig {
        workers: WORKERS,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch: BATCH,
            ..GanHyper::default()
        },
        iterations: 6,
        seed: 21,
        ..MdGanConfig::default()
    }
}

fn probed(cfg: MdGanConfig) -> (MdGan, Arc<Mutex<Vec<Call>>>) {
    let shards =
        mnist_like(12, WORKERS * 16, 11, 0.08).shard_iid(WORKERS, &mut Rng64::seed_from_u64(11));
    let mut md = MdGan::new(&ArchSpec::mlp_mnist_scaled(12), shards, cfg);
    let calls = Arc::new(Mutex::new(Vec::new()));
    md.generator_mut()
        .net
        .push_boxed(Box::new(Probe(calls.clone())));
    (md, calls)
}

#[test]
fn one_stacked_forward_and_one_stacked_backward_per_iteration() {
    let (mut md, calls) = probed(cfg());
    assert_eq!(md.k(), 2);
    for _ in 0..6 {
        md.step();
    }
    let stack = [
        Call::Forward {
            rows: 2 * BATCH,
            groups: 2,
        },
        Call::Backward { rows: 2 * BATCH },
    ];
    assert_eq!(*calls.lock().unwrap(), stack.repeat(6));
}

#[test]
fn the_robust_step_runs_the_same_stacked_pass() {
    let mut c = cfg();
    c.fault = FaultPlan {
        seed: 7,
        drop: 0.05,
        duplicate: 0.05,
        delay: 0.05,
        max_delay_ticks: 2,
        partitions: Vec::new(),
    };
    let (mut md, calls) = probed(c);
    for _ in 0..6 {
        md.step();
    }
    let calls = calls.lock().unwrap();
    let forward = Call::Forward {
        rows: 2 * BATCH,
        groups: 2,
    };
    // An iteration that misses its quorum generates and does not update; no
    // other call shape exists.
    assert_eq!(calls.iter().filter(|c| **c == forward).count(), 6);
    let backwards = calls.len() - 6;
    assert!((1..=6).contains(&backwards), "{backwards} updates");
    assert!(calls
        .iter()
        .all(|c| *c == forward || *c == Call::Backward { rows: 2 * BATCH }));
}

/// After one `MdGan::step` on a CNN generator with k = 2, the running
/// statistics are two EMA steps — the statistics of batch 0, then of batch
/// 1, under the parameters that generated them. Running statistics are read
/// by inference-mode generation only, so that is where they are compared.
#[test]
fn batchnorm_running_statistics_take_one_step_per_generated_batch() {
    let spec = ArchSpec::cnn_cifar_scaled(16);
    let shards =
        cifar_like(16, WORKERS * 16, 11, 0.08).shard_iid(WORKERS, &mut Rng64::seed_from_u64(11));
    let mut md = MdGan::new(&spec, shards, cfg());
    assert_eq!(md.k(), 2);

    // Bystanders with the server's parameters, fresh running statistics
    // (which no checkpoint carries) and the server's noise stream: stream
    // (key, 0, iteration 0), the key drawn after the generator's init from
    // the master seed's first fork.
    let mut server_rng = Rng64::seed_from_u64(cfg().seed).fork(0);
    spec.build_generator(&mut server_rng);
    let key = server_rng.next_u64();
    let bystander = |passes_per_batch: usize| {
        let mut g = spec.build_generator(&mut Rng64::seed_from_u64(0));
        g.net.set_params_flat(&md.gen_params());
        let mut noise = Rng64::keyed(key, 0, 0);
        for _ in 0..md.k() {
            let z = g.sample_z(BATCH, &mut noise);
            let labels = g.sample_labels(BATCH, &mut noise);
            for _ in 0..passes_per_batch {
                g.generate(&z, &labels, true);
            }
        }
        g
    };
    let (mut once, mut twice) = (bystander(1), bystander(2));

    md.step();

    let params = md.gen_params();
    once.net.set_params_flat(&params);
    twice.net.set_params_flat(&params);
    let mut rng = Rng64::seed_from_u64(5);
    let z = once.sample_z(8, &mut rng);
    let labels = once.sample_labels(8, &mut rng);
    let served = md.generator_mut().generate(&z, &labels, false);
    assert_eq!(
        served.data(),
        once.generate(&z, &labels, false).data(),
        "the server's running statistics are not one EMA step per batch"
    );
    assert_ne!(
        served.data(),
        twice.generate(&z, &labels, false).data(),
        "inference-mode generation cannot tell one step from two"
    );
}
