//! Worker-level parallelism must not move a bit: every synchronous
//! runtime hands its N per-worker bodies to
//! `md_tensor::parallel::parallel_for_each_mut`, and whatever the pool
//! width — including widths that do not divide N — the generator, every
//! discriminator, the traffic counters and the checkpoint bytes must equal
//! the one-thread run, where the helper is the plain `for` loop.
//!
//! Every case also reads `md_tensor::pool::stats()` around the run: pooled
//! jobs must have been dispatched at every width above 1 (and none at
//! width 1), so a case cannot pass by quietly staying serial.

use mdgan_repro::core::byzantine::Attack;
use mdgan_repro::core::compression::Codec;
use mdgan_repro::core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::flgan::FlGan;
use mdgan_repro::core::gossip::GossipGan;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::{cifar_like, mnist_like};
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::{ChurnKind, ChurnPlan, FaultPlan, TrafficReport};
use mdgan_repro::tensor::parallel::{max_threads, scoped_max_threads};
use mdgan_repro::tensor::pool;
use mdgan_repro::tensor::rng::Rng64;

/// Pool widths to compare; `0` is the ambient default (`TENSOR_THREADS`,
/// else the host's CPUs), which is how CI's 4-vCPU runners add width 4.
const WIDTHS: [usize; 5] = [1, 2, 3, 8, 0];
/// Worker counts that are multiples of none of the widths above 1.
const WORKER_COUNTS: [usize; 2] = [3, 5];

/// Everything a run leaves behind that the contract pins.
#[derive(Debug, PartialEq)]
struct Outcome {
    gen: Vec<f32>,
    /// `disc_<id>` per worker slot, `None` for a departed worker.
    discs: Vec<Option<Vec<f32>>>,
    traffic: TrafficReport,
    checkpoint: Vec<u8>,
}

/// Runs `run` once per width and asserts every outcome equals the
/// one-thread one. `run` must dispatch at least `min_jobs` pooled jobs
/// whenever the width allows it.
fn assert_width_invariant(case: &str, min_jobs: u64, run: impl Fn() -> Outcome) {
    let mut serial: Option<Outcome> = None;
    for width in WIDTHS {
        // The guard serializes every case of this file, so the pool
        // counters read below belong to this run alone.
        let _guard = scoped_max_threads(width);
        let width = max_threads();
        let before = pool::stats();
        let outcome = run();
        let after = pool::stats();
        let (jobs, tasks) = (after.jobs - before.jobs, after.tasks - before.tasks);
        if width == 1 {
            assert_eq!(jobs, 0, "{case}: width 1 dispatched to the pool");
        } else {
            assert!(
                jobs >= min_jobs && tasks >= min_jobs,
                "{case}: width {width} stayed serial ({jobs} jobs, {tasks} pooled tasks, \
                 expected at least {min_jobs})"
            );
        }
        match &serial {
            None => serial = Some(outcome),
            Some(want) => {
                assert_eq!(
                    outcome.gen, want.gen,
                    "{case}: generator moved at width {width}"
                );
                assert_eq!(
                    outcome.discs, want.discs,
                    "{case}: a discriminator moved at width {width}"
                );
                assert_eq!(
                    outcome.traffic, want.traffic,
                    "{case}: traffic moved at width {width}"
                );
                assert_eq!(
                    outcome.checkpoint, want.checkpoint,
                    "{case}: checkpoint bytes moved at width {width}"
                );
            }
        }
    }
}

fn outcome_of(md: &MdGan, slots: usize) -> Outcome {
    let ck = md.checkpoint();
    Outcome {
        gen: md.gen_params(),
        discs: (1..=slots)
            .map(|id| ck.get(&format!("disc_{id}")).map(<[f32]>::to_vec))
            .collect(),
        traffic: md.traffic(),
        checkpoint: ck.to_bytes().to_vec(),
    }
}

fn step_n(mut md: MdGan, iters: usize, slots: usize) -> Outcome {
    for _ in 0..iters {
        md.step();
    }
    outcome_of(&md, slots)
}

fn mnist_shards(img: usize, workers: usize, per_worker: usize) -> Vec<Dataset> {
    mnist_like(img, workers * per_worker, 11, 0.08)
        .shard_iid(workers, &mut Rng64::seed_from_u64(11))
}

/// `m / b = 4`: a swap every four iterations, so nine iterations cross two.
const ITERS: usize = 9;

fn cfg(workers: usize, batch: usize) -> MdGanConfig {
    MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper: GanHyper {
            batch,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: 21,
        ..MdGanConfig::default()
    }
}

#[test]
fn plain_path_paper_mlp() {
    let spec = ArchSpec::paper_mnist_mlp();
    for n in WORKER_COUNTS {
        let shards = mnist_shards(28, n, 40);
        assert_width_invariant(&format!("paper MLP b=10 N={n}"), ITERS as u64, || {
            let md = MdGan::new(&spec, shards.clone(), cfg(n, 10));
            assert_eq!(md.swap_interval(), 4);
            step_n(md, ITERS, n)
        });
    }
}

/// At b = 100 the paper MLP's GEMMs are above the kernel gate: inside a
/// worker turn they run inline on the turn's slot, on the server between
/// turns they split over the pool — two levels, same bits.
#[test]
fn plain_path_paper_mlp_with_kernels_above_the_gate() {
    let spec = ArchSpec::paper_mnist_mlp();
    let shards = mnist_shards(28, 3, 200);
    assert_width_invariant("paper MLP b=100 N=3", 5, || {
        let md = MdGan::new(&spec, shards.clone(), cfg(3, 100));
        assert_eq!(md.swap_interval(), 2);
        step_n(md, 5, 3)
    });
}

#[test]
fn plain_path_cnn() {
    let spec = ArchSpec::cnn_cifar_scaled(16);
    for n in WORKER_COUNTS {
        let shards = cifar_like(16, n * 16, 11, 0.08).shard_iid(n, &mut Rng64::seed_from_u64(11));
        assert_width_invariant(&format!("CNN b=4 N={n}"), ITERS as u64, || {
            let md = MdGan::new(&spec, shards.clone(), cfg(n, 4));
            assert_eq!(md.swap_interval(), 4);
            step_n(md, ITERS, n)
        });
    }
}

#[test]
fn with_attackers() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    let attacks = [
        Attack::PureNoise { std: 2.0 },
        Attack::DelayedEcho,
        Attack::PretrainedMimic,
        Attack::SignFlip { scale: 1.0 },
    ];
    for n in WORKER_COUNTS {
        let shards = mnist_shards(12, n, 16);
        let mut c = cfg(n, 4);
        c.attacks = attacks[..n.min(attacks.len())].to_vec();
        assert_width_invariant(&format!("attackers N={n}"), ITERS as u64, || {
            step_n(MdGan::new(&spec, shards.clone(), c.clone()), ITERS, n)
        });
    }
}

#[test]
fn with_lossy_codecs() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    for n in WORKER_COUNTS {
        let shards = mnist_shards(12, n, 16);
        assert_width_invariant(&format!("codecs N={n}"), ITERS as u64, || {
            let md = MdGan::new(&spec, shards.clone(), cfg(n, 4))
                .with_codecs(Codec::Quantize8, Codec::TopK { frac: 0.25 });
            step_n(md, ITERS, n)
        });
    }
}

#[test]
fn under_churn() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    for n in WORKER_COUNTS {
        let plan = ChurnPlan::seeded(7, n, ITERS, 0.5, 0.3, 0.3);
        for kind in [ChurnKind::Join, ChurnKind::Leave, ChurnKind::Crash] {
            assert!(plan.count(kind) >= 1, "N={n}: seeded plan has no {kind:?}");
        }
        let total = plan.max_workers(n);
        let shards = mnist_shards(12, total, 16);
        let mut c = cfg(n, 4);
        c.churn = plan;
        // Nobody is left for the last iterations of some plans; one pooled
        // job per iteration that still has two workers is the floor.
        assert_width_invariant(&format!("churn N={n}"), 4, || {
            step_n(MdGan::new(&spec, shards.clone(), c.clone()), ITERS, total)
        });
    }
}

#[test]
fn robust_step_under_faults_with_defense() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    for n in WORKER_COUNTS {
        let shards = mnist_shards(12, n, 16);
        let mut c = cfg(n, 4);
        c.fault = FaultPlan {
            seed: 7,
            drop: 0.05,
            duplicate: 0.05,
            delay: 0.05,
            max_delay_ticks: 2,
            partitions: Vec::new(),
        };
        c.defense.enabled = true;
        assert_width_invariant(&format!("robust N={n}"), ITERS as u64, || {
            let outcome = step_n(MdGan::new(&spec, shards.clone(), c.clone()), ITERS, n);
            let t = &outcome.traffic;
            assert!(
                t.dropped_msgs + t.dup_msgs + t.delayed_msgs > 0,
                "N={n}: the fault plan never fired"
            );
            outcome
        });
    }
}

fn fl_cfg(workers: usize) -> FlGanConfig {
    FlGanConfig {
        workers,
        epochs_per_round: 1.0,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        iterations: 6,
        seed: 21,
    }
}

/// `m / b = 4`: six local iterations cross one averaging / gossip round.
#[test]
fn flgan_and_gossip_across_a_round() {
    let spec = ArchSpec::mlp_mnist_scaled(12);
    for n in WORKER_COUNTS {
        let shards = mnist_shards(12, n, 16);
        assert_width_invariant(&format!("FL-GAN N={n}"), 6, || {
            let mut fl = FlGan::new(&spec, shards.clone(), fl_cfg(n));
            for _ in 0..6 {
                fl.step();
            }
            assert_eq!(fl.rounds(), 1);
            Outcome {
                gen: fl.server_gen.net.get_params_flat(),
                discs: Vec::new(),
                traffic: fl.traffic(),
                checkpoint: fl.checkpoint().to_bytes().to_vec(),
            }
        });
        assert_width_invariant(&format!("gossip N={n}"), 6, || {
            let mut g = GossipGan::new(&spec, shards.clone(), fl_cfg(n));
            for _ in 0..6 {
                g.step();
            }
            assert!(g.exchanges() >= 1);
            Outcome {
                gen: g.observer_generator().net.get_params_flat(),
                discs: Vec::new(),
                traffic: g.traffic(),
                checkpoint: g.checkpoint().to_bytes().to_vec(),
            }
        });
    }
}
