//! Seeded random number generation for reproducible experiments.
//!
//! Every stochastic component in the workspace (weight init, noise batches,
//! dataset synthesis, batch sampling, swap permutations, crash schedules)
//! draws from an explicitly seeded [`Rng64`], so whole training runs are
//! bit-for-bit reproducible — a property several integration tests rely on
//! (e.g. threaded vs sequential MD-GAN equivalence). Construction draws
//! (weight init, datasets, shard splits) run on forks of one master stream;
//! draws made while training come from [`Rng64::keyed`] streams, opened per
//! step, so no checkpoint carries a stream position.

use crate::math;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One SplitMix64 step from `z`: a bijection of `u64`, so distinct inputs
/// give distinct outputs.
fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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

    /// The stream `step` of `stream` under `key`: the xoshiro256++ body
    /// seeded from SplitMix64 of the three words. A draw made while
    /// training is then a pure function of (run key, stream, step), the
    /// counter-based scheme of Salmon et al., "Parallel Random Numbers: As
    /// Easy as 1, 2, 3" (SC '11): a holder keeps its key, opens one stream
    /// per step from a counter the checkpoint already carries and draws
    /// from it in order, so no stream position is ever saved.
    pub fn keyed(key: u64, stream: u64, step: u64) -> Self {
        Rng64::seed_from_u64(splitmix64(splitmix64(splitmix64(key) ^ stream) ^ step))
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
        let (u1, theta) = self.box_muller_inputs();
        let r = (-2.0 * math::ln(u1)).sqrt();
        let (sin, cos) = math::sin_cos(theta);
        self.spare_normal = Some(r * sin);
        r * cos
    }

    /// The two draws of one Box–Muller pair: `u1` in `(0, 1]` (so its `ln`
    /// is finite) and the angle `2π·u2`.
    #[inline]
    fn box_muller_inputs(&mut self) -> (f32, f32) {
        let u1: f32 = 1.0 - self.inner.gen::<f32>();
        let u2: f32 = self.inner.gen::<f32>();
        (u1, 2.0 * std::f32::consts::PI * u2)
    }

    /// Fills `out` with `lo + (hi - lo) * u` for `out.len()` successive
    /// [`Rng64::uniform`] draws `u`, in order, and leaves the same state
    /// behind. The draws go into a block of raw integers first, so the
    /// generator's loop carries no float work; the scaling then runs
    /// lane-wise.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        const BLOCK: usize = 256;
        // `uniform`'s conversion: the top 24 bits of `next_u32`, over 2^24.
        let unit = 1.0 / (1u32 << 24) as f32;
        let mut bits = [0u32; BLOCK];
        for block in out.chunks_mut(BLOCK) {
            let bits = &mut bits[..block.len()];
            for b in bits.iter_mut() {
                *b = self.inner.next_u32() >> 8;
            }
            for (x, &b) in block.iter_mut().zip(&*bits) {
                *x = lo + (hi - lo) * (b as f32 * unit);
            }
        }
    }

    /// Fills `out` with exactly the values, in order, that `out.len()`
    /// calls of [`Rng64::normal`] would return, and leaves the same state
    /// behind (spare included). The uniforms are drawn in the same order;
    /// `ln`, `sqrt` and `sin_cos` then run lane-wise over blocks of pairs.
    pub fn fill_normal(&mut self, out: &mut [f32]) {
        const PAIRS: usize = 64;
        let mut out = out;
        if out.is_empty() {
            return;
        }
        if let Some(z) = self.spare_normal.take() {
            out[0] = z;
            out = &mut out[1..];
        }
        let (body, tail) = out.split_at_mut(out.len() & !1);
        let (mut r, mut sin, mut cos) = ([0.0f32; PAIRS], [0.0f32; PAIRS], [0.0f32; PAIRS]);
        for block in body.chunks_mut(2 * PAIRS) {
            let n = block.len() / 2;
            let (r, sin, cos) = (&mut r[..n], &mut sin[..n], &mut cos[..n]);
            for (u1, theta) in r.iter_mut().zip(sin.iter_mut()) {
                (*u1, *theta) = self.box_muller_inputs();
            }
            math::ln_slice(r);
            for v in r.iter_mut() {
                *v = (-2.0 * *v).sqrt();
            }
            math::sin_cos_slice(sin, cos);
            for (((pair, &r), &s), &c) in block.chunks_exact_mut(2).zip(&*r).zip(&*sin).zip(&*cos) {
                pair[0] = r * c;
                pair[1] = r * s;
            }
        }
        if let [last] = tail {
            *last = self.normal();
        }
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

    /// The same (key, stream, step) opens the same stream; changing any one
    /// word by one, or trading stream for step, opens another.
    #[test]
    fn keyed_streams_are_pure_and_distinct() {
        let draws = |key, stream, step| -> Vec<u64> {
            let mut rng = Rng64::keyed(key, stream, step);
            (0..16).map(|_| rng.next_u64()).collect()
        };
        let base = draws(7, 3, 11);
        assert_eq!(base, draws(7, 3, 11));
        for other in [
            (6, 3, 11),
            (8, 3, 11),
            (7, 2, 11),
            (7, 4, 11),
            (7, 3, 10),
            (7, 3, 12),
            (7, 11, 3),
        ] {
            let d = draws(other.0, other.1, other.2);
            assert_ne!(d[0], base[0], "{other:?}");
            assert_ne!(d, base, "{other:?}");
        }
        let mut a = Rng64::keyed(1, 2, 3);
        let mut b = Rng64::keyed(1, 2, 3);
        let (mut x, mut y) = (vec![0.0; 33], vec![0.0; 33]);
        a.fill_normal(&mut x);
        b.fill_normal(&mut y);
        assert_eq!(x, y);
    }

    /// The batch entry against repeated `normal()` calls: every length
    /// from 0 to 300 (odd and even, across the 128-value blocks), from a
    /// fresh generator and from one with a pending spare, then the same
    /// next draws (the spare included).
    #[test]
    fn fill_normal_matches_repeated_normal() {
        for spare in [false, true] {
            for len in 0..=300 {
                let mut a = Rng64::seed_from_u64(len as u64 ^ 0x5eed);
                if spare {
                    a.normal();
                }
                let mut b = a.clone();
                let mut batch = vec![f32::NAN; len];
                a.fill_normal(&mut batch);
                let single: Vec<f32> = (0..len).map(|_| b.normal()).collect();
                assert_eq!(
                    batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "len {len}, spare {spare}"
                );
                for _ in 0..3 {
                    assert_eq!(a.normal().to_bits(), b.normal().to_bits());
                }
                assert_eq!(a.next_u64(), b.next_u64(), "len {len}, spare {spare}");
            }
        }
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
