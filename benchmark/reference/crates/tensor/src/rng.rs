//! Seeded random number generation for reproducible experiments.
//!
//! Every stochastic component in the workspace (weight init, noise batches,
//! dataset synthesis, batch sampling, swap permutations, crash schedules)
//! draws from an explicitly seeded [`Rng64`], so whole training runs are
//! bit-for-bit reproducible — a property several integration tests rely on
//! (e.g. threaded vs sequential MD-GAN equivalence).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded RNG with the handful of draws the workspace needs.
///
/// Wraps [`rand::rngs::StdRng`] and adds a Box–Muller standard-normal
/// sampler (the `rand_distr` crate is deliberately not a dependency).
#[derive(Clone, Debug)]
pub struct Rng64 {
    inner: StdRng,
    /// Cached second output of the last Box–Muller transform.
    spare_normal: Option<f32>,
}

impl Rng64 {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child RNG; used to give each worker/node its
    /// own stream while keeping the whole system a function of one seed.
    pub fn fork(&mut self, salt: u64) -> Rng64 {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng64::seed_from_u64(s)
    }

    /// Number of words in the serialized state (see [`Rng64::state_words`]).
    pub const STATE_WORDS: usize = 5;

    /// Serializes the full generator state into five `u64` words: the four
    /// xoshiro256++ state words plus one word encoding the cached Box–Muller
    /// spare sample (`1 << 32 | f32 bits` when present, `0` when absent).
    ///
    /// A generator rebuilt with [`Rng64::from_state_words`] continues the
    /// exact stream — this is what makes checkpoint/resume bit-identical.
    pub fn state_words(&self) -> [u64; Self::STATE_WORDS] {
        let s = self.inner.state();
        let spare = match self.spare_normal {
            Some(z) => (1u64 << 32) | u64::from(z.to_bits()),
            None => 0,
        };
        [s[0], s[1], s[2], s[3], spare]
    }

    /// Rebuilds a generator from [`Rng64::state_words`] output.
    pub fn from_state_words(w: [u64; Self::STATE_WORDS]) -> Self {
        Rng64 {
            inner: StdRng::from_state([w[0], w[1], w[2], w[3]]),
            spare_normal: if w[4] >> 32 != 0 {
                Some(f32::from_bits(w[4] as u32))
            } else {
                None
            },
        }
    }

    /// Uniform f32 in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f32 {
        self.inner.gen::<f32>()
    }

    /// Uniform u64.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform usize in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // u1 in (0,1] to keep ln() finite.
        let u1: f32 = 1.0 - self.inner.gen::<f32>();
        let u2: f32 = self.inner.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// A uniformly random *derangement* of `0..n` (no fixed points), by
    /// rejection sampling. For `n == 1` there is no derangement; we return
    /// the identity and let callers treat a single worker as "no swap".
    pub fn derangement(&mut self, n: usize) -> Vec<usize> {
        if n <= 1 {
            return (0..n).collect();
        }
        loop {
            let p = self.permutation(n);
            if p.iter().enumerate().all(|(i, &pi)| i != pi) {
                return p;
            }
        }
    }

    /// Samples `k` distinct indices from `0..n` (k <= n), in random order.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct from {n}");
        // Partial Fisher–Yates.
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_streams_diverge() {
        let mut root = Rng64::seed_from_u64(1);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let a: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn state_roundtrip_continues_every_stream() {
        let mut a = Rng64::seed_from_u64(77);
        // Consume an odd number of normals so the Box–Muller spare is
        // cached — the trickiest part of the state to carry across.
        for _ in 0..7 {
            a.normal();
        }
        let mut b = Rng64::from_state_words(a.state_words());
        for _ in 0..32 {
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
        assert_eq!(a.permutation(17), b.permutation(17));
    }

    #[test]
    fn state_words_capture_absent_spare() {
        let a = Rng64::seed_from_u64(3);
        let w = a.state_words();
        assert_eq!(w[4], 0, "fresh rng has no cached spare normal");
        let mut b = Rng64::from_state_words(w);
        let mut a2 = Rng64::seed_from_u64(3);
        assert_eq!(a2.normal().to_bits(), b.normal().to_bits());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng64::seed_from_u64(9);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng64::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = Rng64::seed_from_u64(11);
        let p = rng.permutation(20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn derangement_has_no_fixed_points() {
        let mut rng = Rng64::seed_from_u64(13);
        for n in [2usize, 3, 5, 10, 50] {
            let d = rng.derangement(n);
            assert!(d.iter().enumerate().all(|(i, &x)| i != x), "n={n}: {d:?}");
            let mut sorted = d.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn derangement_of_one_is_identity() {
        let mut rng = Rng64::seed_from_u64(3);
        assert_eq!(rng.derangement(1), vec![0]);
        assert!(rng.derangement(0).is_empty());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = Rng64::seed_from_u64(17);
        let s = rng.sample_distinct(10, 4);
        assert_eq!(s.len(), 4);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        assert!(s.iter().all(|&x| x < 10));
    }

    #[test]
    fn normal_with_scales_and_shifts() {
        let mut rng = Rng64::seed_from_u64(23);
        let n = 10_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal_with(3.0, 0.5)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }
}
