//! Steady-state check of the workspace shelf on the paper's MLP setting:
//! N = 10 workers, b = 10, `ArchSpec::paper_mnist_mlp()` through
//! `MdGan::step` on one thread (the `mlp_b10_seq` benchmark workload at a
//! small shard size). A discriminator holds no gradient buffer between
//! steps: each D step draws one gradient set from the shelf and its Adam
//! update hands it back for the next worker. Once the first iterations
//! have shelved every buffer an iteration needs, further iterations must be
//! served entirely by recycling: `ws_misses` stays flat and the shelf stops
//! growing — across swaps, which move parameter tensors between workers.
//!
//! This file deliberately holds a **single** test: the workspace counters
//! are process-global, and a concurrently running test in the same binary
//! would make flatness assertions racy.

use mdgan_repro::core::config::{GanHyper, MdGanConfig};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::mnist_like;
use mdgan_repro::tensor::parallel::scoped_max_threads;
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::workspace;

const WORKERS: usize = 10;
const BATCH: usize = 10;
/// Images per worker: a swap every 4 iterations, so both the warm-up and
/// the measured stretch cross several.
const SHARD: usize = 40;
const WARMUP: usize = 12;
const MEASURED: usize = 28;

#[test]
fn mlp_training_iterations_allocate_nothing_after_warmup() {
    let _threads = scoped_max_threads(1);
    let spec = ArchSpec::paper_mnist_mlp();
    let data = mnist_like(28, WORKERS * SHARD, 5, 0.08);
    let shards = data.shard_iid(WORKERS, &mut Rng64::seed_from_u64(5));
    let cfg = MdGanConfig {
        workers: WORKERS,
        hyper: GanHyper {
            batch: BATCH,
            ..GanHyper::default()
        },
        seed: 5,
        ..MdGanConfig::default()
    };
    let mut md = MdGan::new(&spec, shards, cfg);

    for _ in 0..WARMUP {
        md.step();
    }
    let warm = workspace::stats();
    let mut pooled_high = warm.pooled_bufs;
    for _ in 0..MEASURED {
        md.step();
        pooled_high = pooled_high.max(workspace::stats().pooled_bufs);
    }
    let end = workspace::stats();

    assert_eq!(
        end.misses, warm.misses,
        "steady-state MLP iterations must not allocate: ws_misses went {} -> {} over {MEASURED} iterations",
        warm.misses, end.misses
    );
    assert!(
        end.hits > warm.hits,
        "the iterations should be drawing buffers from the shelf"
    );
    assert!(
        pooled_high <= warm.pooled_bufs,
        "the shelf kept growing after warm-up: {} -> {} idle buffers",
        warm.pooled_bufs,
        pooled_high
    );
}
