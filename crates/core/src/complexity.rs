//! Closed-form computation / memory / communication models — the code
//! behind Tables II, III and IV and Figure 2 of the paper.
//!
//! Everything is expressed in the paper's own variables: `N` workers,
//! batch size `b`, object size `d` (floats per data object), `k` generated
//! batches per iteration, generator size `|w|`, discriminator size `|θ|`,
//! local dataset size `m`, swap/round period `E` epochs and `I` total
//! iterations. Byte quantities assume 4-byte floats, exactly like our
//! runtime's traffic accounting (which the integration tests cross-check
//! against these formulas).

use crate::config::KPolicy;
use serde::{Deserialize, Serialize};

/// Parameter counts of one GAN: `(|w|, |θ|)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSize {
    /// Generator parameters `|w|`.
    pub gen: usize,
    /// Discriminator parameters `|θ|`.
    pub disc: usize,
}

impl ModelSize {
    /// Total parameters `|w| + |θ|`.
    pub fn total(&self) -> usize {
        self.gen + self.disc
    }
}

/// The paper's MLP for MNIST (§V-A.b).
pub const PAPER_MLP_MNIST: ModelSize = ModelSize {
    gen: 716_560,
    disc: 670_219,
};
/// The paper's CNN for MNIST.
pub const PAPER_CNN_MNIST: ModelSize = ModelSize {
    gen: 628_058,
    disc: 286_048,
};
/// The paper's CNN for CIFAR10.
pub const PAPER_CNN_CIFAR: ModelSize = ModelSize {
    gen: 628_110,
    disc: 100_203,
};

/// MNIST object size in floats (28×28 grayscale).
pub const D_MNIST: usize = 28 * 28;
/// CIFAR10 object size in floats (32×32 RGB).
pub const D_CIFAR: usize = 32 * 32 * 3;

/// One experiment's system parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SysParams {
    /// Number of workers `N`.
    pub n: usize,
    /// Batch size `b`.
    pub b: usize,
    /// Object size `d` (floats).
    pub d: usize,
    /// Generated batches per iteration `k`.
    pub k: usize,
    /// Local dataset size `m`.
    pub m: usize,
    /// Epochs per round/swap `E`.
    pub e: f64,
    /// Total iterations `I`.
    pub iters: usize,
    /// Model parameter counts.
    pub model: ModelSize,
}

impl SysParams {
    /// The paper's CIFAR10 communication-cost scenario (Table IV):
    /// N = 10 workers over the 50,000-image training set, I = 50,000.
    pub fn table_iv_cifar(b: usize) -> Self {
        SysParams {
            n: 10,
            b,
            d: D_CIFAR,
            k: 1,
            m: 50_000 / 10,
            e: 1.0,
            iters: 50_000,
            model: PAPER_CNN_CIFAR,
        }
    }

    /// `n` workers splitting a training set of `dataset` objects of `d`
    /// floats (m = dataset / n), each iteration generating k = ⌊log N⌋
    /// batches ([`KPolicy::LogN`]).
    pub fn log_n(
        n: usize,
        b: usize,
        (d, model, dataset): (usize, ModelSize, usize),
        e: f64,
        iters: usize,
    ) -> Self {
        SysParams {
            n,
            b,
            d,
            k: KPolicy::LogN.resolve(n),
            m: dataset / n,
            e,
            iters,
            model,
        }
    }

    // ---------------------------------------------------------- Table II

    /// FL-GAN server computation: `O(I·b·N·(|w|+|θ|)/(m·E))`.
    pub fn flgan_server_compute(&self) -> f64 {
        self.iters as f64 * self.b as f64 * self.n as f64 * self.model.total() as f64
            / (self.m as f64 * self.e)
    }

    /// FL-GAN server memory: `O(N·(|w|+|θ|))`.
    pub fn flgan_server_memory(&self) -> f64 {
        self.n as f64 * self.model.total() as f64
    }

    /// MD-GAN server computation: `O(I·b·(d·N + k·|w|))`.
    pub fn mdgan_server_compute(&self) -> f64 {
        self.iters as f64
            * self.b as f64
            * (self.d as f64 * self.n as f64 + self.k as f64 * self.model.gen as f64)
    }

    /// MD-GAN server memory: `O(b·(d·N + k·|w|))`.
    pub fn mdgan_server_memory(&self) -> f64 {
        self.b as f64 * (self.d as f64 * self.n as f64 + self.k as f64 * self.model.gen as f64)
    }

    /// FL-GAN worker computation: `O(I·b·(|w|+|θ|))`.
    pub fn flgan_worker_compute(&self) -> f64 {
        self.iters as f64 * self.b as f64 * self.model.total() as f64
    }

    /// FL-GAN worker memory: `O(|w|+|θ|)`.
    pub fn flgan_worker_memory(&self) -> f64 {
        self.model.total() as f64
    }

    /// MD-GAN worker computation: `O(I·b·|θ|)` — the paper's headline
    /// "reduction by a factor of two" on workers.
    pub fn mdgan_worker_compute(&self) -> f64 {
        self.iters as f64 * self.b as f64 * self.model.disc as f64
    }

    /// MD-GAN worker memory: `O(|θ|)`.
    pub fn mdgan_worker_memory(&self) -> f64 {
        self.model.disc as f64
    }

    /// The worker-side computation ratio FL-GAN / MD-GAN
    /// (`(|w|+|θ|)/|θ|`, ≈ 2 when G and D are similar — §IV-D2).
    pub fn worker_compute_ratio(&self) -> f64 {
        self.flgan_worker_compute() / self.mdgan_worker_compute()
    }

    // --------------------------------------------------------- Table III

    /// FL-GAN server-side C→W bytes per round: `N·(|θ|+|w|)` floats.
    pub fn flgan_c2w_server_bytes(&self) -> u64 {
        self.n as u64 * self.model.total() as u64 * 4
    }

    /// FL-GAN worker-side C→W bytes per round: `|θ|+|w|` floats.
    pub fn flgan_c2w_worker_bytes(&self) -> u64 {
        self.model.total() as u64 * 4
    }

    /// FL-GAN W→C bytes per round (worker side) — same size as C→W.
    pub fn flgan_w2c_worker_bytes(&self) -> u64 {
        self.flgan_c2w_worker_bytes()
    }

    /// Number of FL-GAN rounds (`I·b/(m·E)`) — Table III's "Total # C↔W".
    pub fn flgan_rounds(&self) -> u64 {
        (self.iters as f64 * self.b as f64 / (self.m as f64 * self.e)).floor() as u64
    }

    /// MD-GAN server-side C→W bytes per iteration: `2·b·d·N` floats
    /// (two batches per worker, §IV-D1).
    pub fn mdgan_c2w_server_bytes(&self) -> u64 {
        2 * self.b as u64 * self.d as u64 * self.n as u64 * 4
    }

    /// MD-GAN worker-side C→W bytes per iteration: `2·b·d` floats.
    pub fn mdgan_c2w_worker_bytes(&self) -> u64 {
        2 * self.b as u64 * self.d as u64 * 4
    }

    /// MD-GAN worker-side W→C bytes per iteration (the feedback `F_n`):
    /// `b·d` floats ("solely one float ... for each feature").
    pub fn mdgan_w2c_worker_bytes(&self) -> u64 {
        self.b as u64 * self.d as u64 * 4
    }

    /// MD-GAN server-side W→C bytes per iteration: `b·d·N` floats.
    pub fn mdgan_w2c_server_bytes(&self) -> u64 {
        self.b as u64 * self.d as u64 * self.n as u64 * 4
    }

    /// MD-GAN C↔W communication count — every iteration (Table III: `I`).
    pub fn mdgan_rounds(&self) -> u64 {
        self.iters as u64
    }

    /// MD-GAN W→W bytes per swap message: `|θ|` floats.
    pub fn mdgan_w2w_bytes(&self) -> u64 {
        self.model.disc as u64 * 4
    }

    /// Number of MD-GAN swap rounds (`I·b/(m·E)`).
    pub fn mdgan_swaps(&self) -> u64 {
        self.flgan_rounds()
    }

    // ---------------------------------------------------------- Figure 2

    /// FL-GAN maximal worker ingress per communication (bytes) — constant
    /// in `b` (the flat lines of Figure 2).
    pub fn flgan_worker_ingress(&self) -> u64 {
        self.flgan_c2w_worker_bytes()
    }

    /// FL-GAN maximal server ingress per communication (bytes).
    pub fn flgan_server_ingress(&self) -> u64 {
        self.flgan_c2w_server_bytes()
    }

    /// MD-GAN maximal worker ingress per iteration (bytes): the two
    /// generated batches, plus the swapped-in discriminator on swap
    /// iterations (the "worker-worker communications during an iteration"
    /// of Figure 2).
    pub fn mdgan_worker_ingress(&self, include_swap: bool) -> u64 {
        self.mdgan_c2w_worker_bytes()
            + if include_swap {
                self.mdgan_w2w_bytes()
            } else {
                0
            }
    }

    /// MD-GAN server ingress per iteration (bytes): all N feedbacks.
    pub fn mdgan_server_ingress(&self) -> u64 {
        self.mdgan_w2c_server_bytes()
    }

    /// The batch size at which MD-GAN's per-iteration worker ingress
    /// overtakes FL-GAN's per-round worker ingress — the crossover points
    /// of Figure 2 (paper: ≈550 for MNIST, ≈400 for CIFAR10).
    pub fn worker_ingress_crossover(&self, include_swap: bool) -> usize {
        let fl = self.flgan_worker_ingress() as f64;
        let swap = if include_swap {
            self.mdgan_w2w_bytes() as f64
        } else {
            0.0
        };
        // Solve 2*b*d*4 + swap = fl.
        (((fl - swap) / (2.0 * self.d as f64 * 4.0)).floor()).max(0.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cifar10() -> SysParams {
        SysParams::table_iv_cifar(10)
    }

    #[test]
    fn log_n_takes_k_from_the_policy_and_m_from_the_split() {
        for (n, k) in [(1, 1), (2, 1), (7, 2), (10, 3), (64, 6)] {
            let p = SysParams::log_n(n, 10, (D_CIFAR, PAPER_CNN_CIFAR, 50_000), 1.0, 9);
            assert_eq!((p.k, p.m), (k, 50_000 / n));
            assert_eq!((p.n, p.b, p.d, p.iters), (n, 10, D_CIFAR, 9));
        }
    }

    #[test]
    fn paper_model_sizes() {
        assert_eq!(PAPER_MLP_MNIST.total(), 716_560 + 670_219);
        assert_eq!(PAPER_CNN_CIFAR.gen, 628_110);
        assert_eq!(D_CIFAR, 3072);
    }

    #[test]
    fn worker_compute_halves_for_similar_g_and_d() {
        // With |w| ≈ |θ| the ratio is ≈ 2 — the paper's headline claim.
        let p = SysParams {
            model: ModelSize {
                gen: 500_000,
                disc: 500_000,
            },
            ..cifar10()
        };
        assert!((p.worker_compute_ratio() - 2.0).abs() < 1e-9);
        // With the paper's actual MLP sizes it is slightly above 2.
        let p = SysParams {
            model: PAPER_MLP_MNIST,
            ..cifar10()
        };
        let r = p.worker_compute_ratio();
        assert!(r > 2.0 && r < 2.1, "ratio {r}");
    }

    #[test]
    fn table_iii_counts() {
        // CIFAR10, b=10: m·E/b = 5000/10 = 500 iterations per round; with
        // I = 50,000 that is 100 rounds (Table IV's "Total # C↔W = 100").
        let p = cifar10();
        assert_eq!(p.flgan_rounds(), 100);
        assert_eq!(p.mdgan_rounds(), 50_000);
        assert_eq!(p.mdgan_swaps(), 100);
        // b=100: 1,000 rounds / 1,000 swaps (Table IV).
        let p = SysParams::table_iv_cifar(100);
        assert_eq!(p.flgan_rounds(), 1000);
        assert_eq!(p.mdgan_swaps(), 1000);
    }

    #[test]
    fn table_iv_mdgan_c2w_magnitudes() {
        // Paper: MD-GAN C→W (C) = 2.30 MB at b=10, 23.0 MB at b=100.
        // Ours: 2·b·d·N floats = 2·10·3072·10·4 bytes = 2.46 MB (2.34 MiB).
        let p10 = cifar10();
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        assert!((mb(p10.mdgan_c2w_server_bytes()) - 2.34).abs() < 0.05);
        let p100 = SysParams::table_iv_cifar(100);
        assert!((mb(p100.mdgan_c2w_server_bytes()) - 23.4).abs() < 0.5);
        // And C→W at one worker is N× smaller.
        assert_eq!(
            p10.mdgan_c2w_server_bytes(),
            10 * p10.mdgan_c2w_worker_bytes()
        );
    }

    #[test]
    fn mdgan_w2w_is_theta() {
        let p = cifar10();
        assert_eq!(p.mdgan_w2w_bytes(), 100_203 * 4);
    }

    #[test]
    fn flgan_ingress_is_flat_in_b() {
        let p10 = cifar10();
        let p1000 = SysParams::table_iv_cifar(1000);
        assert_eq!(p10.flgan_worker_ingress(), p1000.flgan_worker_ingress());
        assert_eq!(p10.flgan_server_ingress(), p1000.flgan_server_ingress());
    }

    #[test]
    fn mdgan_ingress_grows_linearly_in_b() {
        let p10 = cifar10();
        let p20 = SysParams::table_iv_cifar(20);
        assert_eq!(
            2 * p10.mdgan_worker_ingress(false),
            p20.mdgan_worker_ingress(false)
        );
    }

    #[test]
    fn crossover_exists_in_the_hundreds_for_paper_models() {
        // Figure 2: MD-GAN is competitive below a few hundred images.
        let mnist = SysParams {
            d: D_MNIST,
            model: PAPER_CNN_MNIST,
            ..cifar10()
        };
        let c_mnist = mnist.worker_ingress_crossover(false);
        assert!((100..2000).contains(&c_mnist), "MNIST crossover {c_mnist}");

        let cifar = SysParams {
            model: PAPER_CNN_CIFAR,
            ..cifar10()
        };
        let c_cifar = cifar.worker_ingress_crossover(false);
        assert!((50..1000).contains(&c_cifar), "CIFAR crossover {c_cifar}");
        // CIFAR objects are bigger, so its crossover comes earlier.
        assert!(c_cifar < c_mnist);
    }

    #[test]
    fn crossover_below_means_mdgan_cheaper() {
        let p = SysParams {
            model: PAPER_CNN_CIFAR,
            ..cifar10()
        };
        let c = p.worker_ingress_crossover(false);
        let below = SysParams::table_iv_cifar(c.saturating_sub(1).max(1));
        assert!(below.mdgan_worker_ingress(false) <= below.flgan_worker_ingress());
        let above = SysParams::table_iv_cifar(c + 2);
        assert!(above.mdgan_worker_ingress(false) > above.flgan_worker_ingress());
    }

    #[test]
    fn server_memory_tradeoff_in_k() {
        // Bigger k costs the server more memory and compute (§IV-B4).
        let k1 = cifar10();
        let k10 = SysParams { k: 10, ..cifar10() };
        assert!(k10.mdgan_server_memory() > k1.mdgan_server_memory());
        assert!(k10.mdgan_server_compute() > k1.mdgan_server_compute());
    }
}
