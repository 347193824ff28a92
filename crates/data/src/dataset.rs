//! In-memory labelled image datasets, i.i.d. sharding, and batch sampling.

use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use std::borrow::Cow;
use std::sync::Arc;

/// A labelled image dataset: images `(N, C, H, W)` with values in `[-1, 1]`
/// and one integer label per image.
///
/// The images live once, in a storage tensor shared by every dataset cut
/// from it; a dataset is the list of storage rows it covers plus one label
/// per row. Sharding, splitting and cloning copy no pixel (the paper's
/// `B = ∪ B_n` holds each image once); [`Dataset::batch`] gathers through
/// the row list.
#[derive(Clone, Debug)]
pub struct Dataset {
    storage: Arc<Tensor>,
    rows: Arc<[usize]>,
    labels: Arc<[usize]>,
    num_classes: usize,
}

impl Dataset {
    /// Wraps images and labels.
    ///
    /// # Panics
    /// Panics on rank/count mismatches or out-of-range labels.
    pub fn new(images: Tensor, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(images.ndim(), 4, "images must be (N, C, H, W)");
        assert_eq!(
            images.shape()[0],
            labels.len(),
            "one label per image required"
        );
        assert!(num_classes > 0, "num_classes must be positive");
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );
        Dataset {
            rows: (0..labels.len()).collect(),
            storage: Arc::new(images),
            labels: labels.into(),
            num_classes,
        }
    }

    /// The samples at `indices` of this dataset, as a view of the same
    /// storage.
    fn view(&self, indices: &[usize]) -> Dataset {
        Dataset {
            storage: Arc::clone(&self.storage),
            rows: indices.iter().map(|&i| self.rows[i]).collect(),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            num_classes: self.num_classes,
        }
    }

    /// Number of samples `m`.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample shape `(C, H, W)`.
    pub fn image_shape(&self) -> (usize, usize, usize) {
        let s = self.storage.shape();
        (s[1], s[2], s[3])
    }

    /// The paper's object size `d`: number of f32 features per sample.
    pub fn object_size(&self) -> usize {
        let (c, h, w) = self.image_shape();
        c * h * w
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// All images as one tensor: borrowed when this dataset covers its
    /// storage whole and in order, gathered otherwise.
    pub fn images(&self) -> Cow<'_, Tensor> {
        let whole = self.rows.len() == self.storage.shape()[0]
            && self.rows.iter().enumerate().all(|(i, &r)| i == r);
        if whole {
            Cow::Borrowed(&self.storage)
        } else {
            Cow::Owned(self.storage.gather_rows(self.rows.iter().copied()))
        }
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Copies samples at `indices` into a `(b, C, H, W)` batch.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let images = self
            .storage
            .gather_rows(indices.iter().map(|&i| self.rows[i]));
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        (images, labels)
    }

    /// Splits off the last `n_test` samples as a test set (the generators
    /// shuffle, so a suffix split is unbiased). Both halves are views of
    /// this dataset's storage.
    pub fn split_test(self, n_test: usize) -> (Dataset, Dataset) {
        assert!(n_test < self.len(), "test split larger than dataset");
        let n_train = self.len() - n_test;
        let idx: Vec<usize> = (0..self.len()).collect();
        (self.view(&idx[..n_train]), self.view(&idx[n_train..]))
    }

    /// Shuffles and splits the dataset into `n` equal i.i.d. shards — the
    /// paper's `B = ∪_{n=1..N} B_n` with `|B_n| = m = |B|/N` (any remainder
    /// samples are dropped so shards stay equal-sized). Each shard is a
    /// view of this dataset's storage.
    pub fn shard_iid(&self, n: usize, rng: &mut Rng64) -> Vec<Dataset> {
        assert!(n > 0, "cannot shard over zero workers");
        let m = self.len() / n;
        assert!(m > 0, "dataset of {} too small for {n} shards", self.len());
        let perm = rng.permutation(self.len());
        perm.chunks_exact(m)
            .take(n)
            .map(|idx| self.view(idx))
            .collect()
    }

    /// Label-skewed (non-i.i.d.) sharding, for ablations of the paper's
    /// i.i.d. assumption (§III.a assumes "no bias in the distribution of
    /// the data on one particular worker node" — this deliberately breaks
    /// it).
    ///
    /// `skew ∈ [0, 1]`: samples are first assigned to shards sorted by
    /// label (maximum skew), then a `1 - skew` fraction of every shard is
    /// pooled and redistributed uniformly. `skew = 0` is exactly i.i.d.;
    /// `skew = 1` gives each worker contiguous label blocks.
    pub fn shard_label_skew(&self, n: usize, skew: f32, rng: &mut Rng64) -> Vec<Dataset> {
        assert!(n > 0, "cannot shard over zero workers");
        assert!(
            (0.0..=1.0).contains(&skew),
            "skew must be in [0, 1], got {skew}"
        );
        let m = self.len() / n;
        assert!(m > 0, "dataset of {} too small for {n} shards", self.len());

        // Sorted-by-label order (ties broken by a shuffled base order so
        // within-class assignment is still random).
        let mut order = rng.permutation(self.len());
        order.sort_by_key(|&i| self.labels[i]);
        let mut assignment: Vec<Vec<usize>> =
            (0..n).map(|w| order[w * m..(w + 1) * m].to_vec()).collect();

        // Pool a (1 - skew) fraction of each shard and redistribute.
        let pooled_per_shard = ((1.0 - skew) * m as f32).round() as usize;
        if pooled_per_shard > 0 {
            let mut pool = Vec::with_capacity(pooled_per_shard * n);
            for shard in &mut assignment {
                rng.shuffle(shard);
                pool.extend(shard.drain(..pooled_per_shard));
            }
            rng.shuffle(&mut pool);
            for (w, chunk) in pool.chunks(pooled_per_shard).enumerate().take(n) {
                assignment[w].extend_from_slice(chunk);
            }
        }
        assignment.iter().map(|idx| self.view(idx)).collect()
    }

    /// `SAMPLES(B, b)`: `b` distinct samples (capped at the dataset size),
    /// drawn from `rng`.
    pub fn sample(&self, b: usize, rng: &mut Rng64) -> (Tensor, Vec<usize>) {
        let idx = rng.sample_distinct(self.len(), b.min(self.len()));
        self.batch(&idx)
    }

    /// Per-class sample counts (for balance checks).
    pub fn class_histogram(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.num_classes];
        for &l in self.labels.iter() {
            h[l] += 1;
        }
        h
    }
}

/// Draws uniformly random batches (with replacement between batches,
/// without replacement inside a batch) from a dataset — the paper's
/// `SAMPLES(B_n, b)`.
#[derive(Clone, Debug)]
pub struct BatchSampler {
    rng: Rng64,
}

impl BatchSampler {
    /// Creates a sampler with its own RNG stream.
    pub fn new(rng: &mut Rng64) -> Self {
        BatchSampler {
            rng: rng.fork(0xBA7C4),
        }
    }

    /// Samples a batch of size `b` (capped at the dataset size).
    pub fn sample(&mut self, data: &Dataset, b: usize) -> (Tensor, Vec<usize>) {
        data.sample(b, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, classes: usize) -> Dataset {
        let images = Tensor::new(
            &[n, 1, 2, 2],
            (0..n * 4).map(|i| (i % 7) as f32 / 7.0).collect(),
        );
        let labels = (0..n).map(|i| i % classes).collect();
        Dataset::new(images, labels, classes)
    }

    #[test]
    fn basic_accessors() {
        let d = toy(12, 3);
        assert_eq!(d.len(), 12);
        assert_eq!(d.image_shape(), (1, 2, 2));
        assert_eq!(d.object_size(), 4);
        assert_eq!(d.num_classes(), 3);
        assert_eq!(d.class_histogram(), vec![4, 4, 4]);
    }

    #[test]
    fn batch_selects_right_samples() {
        let d = toy(6, 2);
        let (imgs, labels) = d.batch(&[5, 0]);
        assert_eq!(imgs.shape(), &[2, 1, 2, 2]);
        assert_eq!(labels, vec![1, 0]);
        assert_eq!(imgs.index_axis0(1).data(), d.images().index_axis0(0).data());
    }

    #[test]
    fn split_test_partitions() {
        let d = toy(10, 2);
        let (train, test) = d.split_test(3);
        assert_eq!(train.len(), 7);
        assert_eq!(test.len(), 3);
        assert_eq!(train.num_classes(), 2);
    }

    #[test]
    fn split_test_matches_gathered_prefix_and_suffix() {
        for (d, n_test) in [
            (toy(11, 3), 5),
            (crate::synthetic::cifar_like(8, 9, 1, 0.08), 3),
        ] {
            let n = d.len();
            let n_train = n - n_test;
            let (want_train, want_train_labels) = d.batch(&(0..n_train).collect::<Vec<_>>());
            let (want_test, want_test_labels) = d.batch(&(n_train..n).collect::<Vec<_>>());
            let (train, test) = d.split_test(n_test);
            assert_eq!(train.images().shape(), want_train.shape());
            assert_eq!(test.images().shape(), want_test.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&train.images()), bits(&want_train));
            assert_eq!(bits(&test.images()), bits(&want_test));
            assert_eq!(train.labels(), want_train_labels);
            assert_eq!(test.labels(), want_test_labels);
        }
    }

    #[test]
    fn shard_iid_partitions_evenly() {
        let d = toy(20, 2);
        let mut rng = Rng64::seed_from_u64(1);
        let shards = d.shard_iid(4, &mut rng);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 5));
        // Union of shards covers 20 distinct original samples: compare by
        // first pixel values which encode identity modulo 7 — instead check
        // total count and that shards differ.
        assert_ne!(shards[0].images().data(), shards[1].images().data());
    }

    #[test]
    fn shard_iid_is_seed_deterministic() {
        let d = toy(20, 2);
        let a = d.shard_iid(4, &mut Rng64::seed_from_u64(9));
        let b = d.shard_iid(4, &mut Rng64::seed_from_u64(9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.images().data(), y.images().data());
            assert_eq!(x.labels(), y.labels());
        }
    }

    /// A crude per-shard skew measure: max class share within the shard.
    fn dominance(shard: &Dataset) -> f32 {
        let h = shard.class_histogram();
        *h.iter().max().unwrap() as f32 / shard.len() as f32
    }

    #[test]
    fn label_skew_one_gives_contiguous_classes() {
        let d = toy(40, 2); // 20 per class
        let mut rng = Rng64::seed_from_u64(2);
        let shards = d.shard_label_skew(2, 1.0, &mut rng);
        // With 2 classes and 2 shards at full skew, each shard is pure.
        for s in &shards {
            assert!(
                (dominance(s) - 1.0).abs() < 1e-6,
                "histogram {:?}",
                s.class_histogram()
            );
        }
    }

    #[test]
    fn label_skew_zero_is_roughly_balanced() {
        let d = toy(200, 2);
        let mut rng = Rng64::seed_from_u64(3);
        let shards = d.shard_label_skew(4, 0.0, &mut rng);
        for s in &shards {
            assert_eq!(s.len(), 50);
            assert!(dominance(s) < 0.75, "histogram {:?}", s.class_histogram());
        }
    }

    #[test]
    fn label_skew_interpolates() {
        let d = toy(400, 4);
        let mut rng = Rng64::seed_from_u64(4);
        let skewed = d.shard_label_skew(4, 1.0, &mut rng);
        let half = d.shard_label_skew(4, 0.5, &mut rng);
        let iid = d.shard_label_skew(4, 0.0, &mut rng);
        let avg =
            |shards: &[Dataset]| shards.iter().map(dominance).sum::<f32>() / shards.len() as f32;
        assert!(
            avg(&skewed) > avg(&half),
            "{} vs {}",
            avg(&skewed),
            avg(&half)
        );
        assert!(avg(&half) > avg(&iid), "{} vs {}", avg(&half), avg(&iid));
    }

    #[test]
    fn label_skew_partitions_sizes() {
        let d = toy(60, 3);
        let mut rng = Rng64::seed_from_u64(5);
        let shards = d.shard_label_skew(3, 0.7, &mut rng);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| s.len() == 20));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn shard_rejects_more_workers_than_samples() {
        toy(3, 3).shard_iid(10, &mut Rng64::seed_from_u64(1));
    }

    #[test]
    fn sampler_draws_valid_batches() {
        let d = toy(10, 2);
        let mut rng = Rng64::seed_from_u64(2);
        let mut s = BatchSampler::new(&mut rng);
        let (imgs, labels) = s.sample(&d, 4);
        assert_eq!(imgs.shape(), &[4, 1, 2, 2]);
        assert_eq!(labels.len(), 4);
        // Batch larger than dataset is capped.
        let (imgs, _) = s.sample(&d, 100);
        assert_eq!(imgs.shape()[0], 10);
    }

    #[test]
    fn sampler_batches_vary() {
        let d = toy(32, 2);
        let mut rng = Rng64::seed_from_u64(3);
        let mut s = BatchSampler::new(&mut rng);
        let (a, _) = s.sample(&d, 8);
        let (b, _) = s.sample(&d, 8);
        assert_ne!(a.data(), b.data());
    }

    /// FNV-1a over 64-bit words.
    fn fnv(h: &mut u64, words: impl IntoIterator<Item = u64>) {
        for w in words {
            for byte in w.to_le_bytes() {
                *h = (*h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// Hashes a cut's images and labels, two `sample` draws from it, and the
    /// caller's next draw after the cut.
    fn fold(h: &mut u64, cut: &Dataset, rng: &mut Rng64) {
        fnv(h, [cut.len() as u64]);
        fnv(h, cut.images().data().iter().map(|v| v.to_bits() as u64));
        fnv(h, cut.labels().iter().map(|&l| l as u64));
        let mut draw = Rng64::seed_from_u64(cut.len() as u64);
        for b in [3, 5] {
            let (imgs, labels) = cut.sample(b, &mut draw);
            fnv(h, imgs.data().iter().map(|v| v.to_bits() as u64));
            fnv(h, labels.into_iter().map(|l| l as u64));
        }
        fnv(h, [rng.next_u64()]);
    }

    /// Every cut of a 1-channel and a 3-channel generated set, pinned by
    /// hash: `shard_iid` with and without a remainder, `shard_label_skew`
    /// at three skews and both halves of `split_test`. A change to how a
    /// dataset stores or cuts its rows must leave these bits alone.
    #[test]
    fn cuts_are_pinned() {
        let sets = [
            (
                crate::synthetic::mnist_like(12, 23, 5, 0.08),
                0x04d7_4a96_796f_d304,
            ),
            (
                crate::synthetic::cifar_like(8, 23, 6, 0.08),
                0x52c0_be27_a0e9_26cb,
            ),
        ];
        let mut got = Vec::new();
        for (d, want) in sets {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for n in [1, 3, 10] {
                let mut rng = Rng64::seed_from_u64(11 + n as u64);
                for shard in d.shard_iid(n, &mut rng) {
                    fold(&mut h, &shard, &mut rng);
                }
            }
            for skew in [0.0, 0.5, 1.0] {
                let mut rng = Rng64::seed_from_u64(21);
                for shard in d.shard_label_skew(3, skew, &mut rng) {
                    fold(&mut h, &shard, &mut rng);
                }
            }
            let mut rng = Rng64::seed_from_u64(31);
            let (train, test) = d.split_test(7);
            fold(&mut h, &train, &mut rng);
            fold(&mut h, &test, &mut rng);
            got.push((h, want));
        }
        for (i, &(h, want)) in got.iter().enumerate() {
            assert_eq!(
                h, want,
                "set {i}: cut hash {h:#018x}, recorded {want:#018x}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn new_rejects_bad_labels() {
        Dataset::new(Tensor::zeros(&[2, 1, 1, 1]), vec![0, 5], 2);
    }
}
