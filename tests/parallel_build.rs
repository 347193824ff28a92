//! Building a run must not depend on the pool width. Every worker slot's
//! stream is forked from the master seed in slot order before any slot is
//! built, and a slot's constructor draws only from its own fork, so
//! building the slots side by side must leave the same bytes as building
//! them one after the other.
//!
//! The paper MLP and the CIFAR CNN are built through `MdGan::new`,
//! `FlGan::new`, `GossipGan::new` and a zero-iteration `run_threaded`, at
//! width 1 and at width 4 (which does not divide the five workers below). The
//! two widths must agree byte for byte: checkpoints for the systems, the
//! generator parameters for `run_threaded`, which returns no checkpoint.
//! Their FNV-1a hashes are pinned across commits: they were recorded at the
//! commit before construction moved onto the pool.
//!
//! This file deliberately holds a **single** test: `scoped_max_threads`
//! serializes its callers, and one test keeps the widths of the cases from
//! interleaving with another test's.

use mdgan_repro::core::config::{FlGanConfig, GanHyper, MdGanConfig};
use mdgan_repro::core::flgan::FlGan;
use mdgan_repro::core::gossip::GossipGan;
use mdgan_repro::core::mdgan::threaded::run_threaded;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::{cifar_like, mnist_like};
use mdgan_repro::data::Dataset;
use mdgan_repro::tensor::parallel::scoped_max_threads;
use mdgan_repro::tensor::rng::Rng64;

const WIDTHS: [usize; 2] = [1, 4];
/// Images per worker.
const SHARD: usize = 12;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn f32_bytes(xs: &[f32]) -> Vec<u8> {
    xs.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn md_cfg(workers: usize) -> MdGanConfig {
    MdGanConfig {
        workers,
        hyper: GanHyper {
            batch: 4,
            ..GanHyper::default()
        },
        seed: 43,
        ..MdGanConfig::default()
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
        iterations: 1,
        seed: 43,
    }
}

/// What each builder leaves behind, as bytes.
fn builds(spec: &ArchSpec, shards: &[Dataset]) -> [(&'static str, Vec<u8>); 4] {
    let n = shards.len();
    let shards = || shards.to_vec();
    [
        (
            "MdGan::new",
            MdGan::new(spec, shards(), md_cfg(n))
                .checkpoint()
                .to_bytes()
                .to_vec(),
        ),
        (
            "FlGan::new",
            FlGan::new(spec, shards(), fl_cfg(n))
                .checkpoint()
                .to_bytes()
                .to_vec(),
        ),
        (
            "GossipGan::new",
            GossipGan::new(spec, shards(), fl_cfg(n))
                .checkpoint()
                .to_bytes()
                .to_vec(),
        ),
        (
            "run_threaded",
            f32_bytes(&run_threaded(spec, shards(), md_cfg(n), None, 0, 1).gen_params),
        ),
    ]
}

#[test]
fn builds_are_width_invariant_and_pinned() {
    let split =
        |data: Dataset, workers: usize| data.shard_iid(workers, &mut Rng64::seed_from_u64(7));
    let cases = [
        (
            "paper MLP, N = 5",
            ArchSpec::paper_mnist_mlp(),
            split(mnist_like(28, 5 * SHARD, 3, 0.08), 5),
            [
                6390995881397923494,
                14003590461134365547,
                14076420871678940533,
                10782015597606576470,
            ],
        ),
        (
            "CIFAR CNN, N = 5",
            ArchSpec::cnn_cifar_scaled(32),
            split(cifar_like(32, 5 * SHARD, 3, 0.08), 5),
            [
                93339031779616536,
                7948333725315395508,
                10381746005070567402,
                10798437876144596360,
            ],
        ),
    ];
    for (case, spec, shards, pins) in &cases {
        let per_width: Vec<_> = WIDTHS
            .iter()
            .map(|&width| {
                let _guard = scoped_max_threads(width);
                builds(spec, shards)
            })
            .collect();
        let (serial, wide) = (&per_width[0], &per_width[1]);
        for ((builder, one), (_, four)) in serial.iter().zip(wide) {
            assert!(
                one == four,
                "{case}: {builder} at width 4 differs from width 1"
            );
        }
        let hashes = serial
            .iter()
            .map(|(_, bytes)| fnv1a(bytes))
            .collect::<Vec<_>>();
        assert_eq!(
            hashes, pins,
            "{case}: a build moved (MdGan, FlGan, gossip, threaded)"
        );
    }
}
