//! Cutting a dataset copies no pixel. `shard_iid`, `shard_label_skew`,
//! `split_test` and `Dataset::clone` return views that share the parent's
//! image storage, so none of them may draw a buffer from the workspace shelf:
//! its hit and miss counters must read the same before and after the cuts.
//!
//! This file deliberately holds a **single** test: the workspace counters
//! are process-global, and a concurrently running test in the same binary
//! would make the assertion racy.

use mdgan_repro::data::DataSpec;
use mdgan_repro::tensor::parallel::scoped_max_threads;
use mdgan_repro::tensor::rng::Rng64;
use mdgan_repro::tensor::workspace;

#[test]
fn cuts_draw_nothing_from_the_workspace() {
    let _threads = scoped_max_threads(1);
    let data = DataSpec::cifar(16, 200, 3).generate();
    let before = workspace::stats();
    let mut rng = Rng64::seed_from_u64(3);
    let shards = data.shard_iid(10, &mut rng);
    let skewed = data.shard_label_skew(4, 0.5, &mut rng);
    let copy = data.clone();
    let (train, test) = copy.split_test(40);
    let train_shards = train.shard_iid(4, &mut rng);
    let copies: Vec<_> = shards.iter().chain(&skewed).cloned().collect();
    let after = workspace::stats();
    assert_eq!(
        (after.hits, after.misses),
        (before.hits, before.misses),
        "cutting drew from the workspace (hits, misses): before {:?}, after {:?}",
        (before.hits, before.misses),
        (after.hits, after.misses)
    );
    assert_eq!(shards.len() + skewed.len() + train_shards.len(), 18);
    assert_eq!((train.len(), test.len(), copies.len()), (160, 40, 14));
}
