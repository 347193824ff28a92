//! Steady-state check of the workspace shelf across repeated set-ups of the
//! paper's CNN setting: N = 10 workers, b = 10, `ArchSpec::cnn_cifar_scaled(32)`
//! on one thread (the `cnn_b10_seq` benchmark workload's set-up at a small
//! shard size). A set-up generates the CIFAR-like dataset, shards it, drops
//! the full dataset and builds the trainer; then everything is dropped. The
//! shards are views of the dataset's image buffer, so that buffer lives
//! until its shards are dropped with the trainer. No training step runs, so
//! no training buffer can absorb the shelved image buffer: only the next
//! dataset can. The dataset's image buffer is drawn from the shelf, so once
//! a set-up has shelved every buffer a set-up needs, later set-ups must
//! leave the shelf exactly as large as they found it.
//!
//! This file deliberately holds a **single** test: the workspace counters
//! are process-global, and a concurrently running test in the same binary
//! would make the assertion racy.

use mdgan_repro::core::config::{GanHyper, MdGanConfig};
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::DataSpec;
use mdgan_repro::tensor::parallel::scoped_max_threads;
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::workspace;

const WORKERS: usize = 10;
const BATCH: usize = 10;
/// Images per worker.
const SHARD: usize = 40;
const SETUPS: usize = 5;

#[test]
fn repeated_setups_do_not_grow_the_shelf() {
    let _threads = scoped_max_threads(1);
    let spec = ArchSpec::cnn_cifar_scaled(32);
    let mut pooled = Vec::with_capacity(SETUPS);
    for seed in 1..=SETUPS as u64 {
        let data = DataSpec::cifar(32, WORKERS * SHARD, seed).generate();
        let shards = data.shard_iid(WORKERS, &mut Rng64::seed_from_u64(seed));
        drop(data);
        let cfg = MdGanConfig {
            workers: WORKERS,
            hyper: GanHyper {
                batch: BATCH,
                ..GanHyper::default()
            },
            seed,
            ..MdGanConfig::default()
        };
        drop(MdGan::new(&spec, shards, cfg));
        pooled.push(workspace::stats().pooled_bytes);
    }
    assert_eq!(
        pooled[SETUPS - 1],
        pooled[1],
        "the shelf grew across set-ups (idle bytes after each: {pooled:?})"
    );
}
