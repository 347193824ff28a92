//! Hyper-parameter records for MD-GAN and its competitors.

use crate::byzantine::{Aggregation, Attack};
use crate::defense::DefenseConfig;
use md_nn::gan::GenLossMode;
use md_nn::optim::AdamConfig;
use md_simnet::{ChurnPlan, CrashSchedule, FaultPlan};
use serde::{Deserialize, Serialize};

/// Knobs for the oracle-free robust runtimes: bounded retransmission,
/// quorum-gated generator updates, and failure detection from missed
/// feedbacks.
///
/// The robust path activates whenever a [`FaultPlan`] is attached or
/// [`enabled`](RobustnessConfig::enabled) is set explicitly; otherwise the
/// runtimes keep the fast oracle-driven path.
#[derive(Clone, Copy, Debug)]
pub struct RobustnessConfig {
    /// Force the robust path even on a perfect network.
    pub enabled: bool,
    /// Retransmissions per data message after a drop (stop-and-wait).
    pub retries: u32,
    /// Consecutive missed feedbacks before a worker is suspected.
    pub suspect_after: u32,
    /// Probe suspected workers every this many iterations (so crashed-then
    /// -recovered or merely slow workers can rejoin); 0 disables probing.
    pub probe_period: usize,
    /// Fraction of the expected feedbacks required to apply a generator
    /// update (at least one feedback is always required).
    pub quorum_frac: f32,
    /// Consecutive misses a *suspected* worker accumulates before it is
    /// permanently evicted from the cluster (`suspect_after + evict_after`
    /// total misses). `0` disables eviction — suspicion then stays
    /// indefinitely reversible, the pre-elastic behavior.
    pub evict_after: u32,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            enabled: false,
            retries: 2,
            suspect_after: 2,
            probe_period: 8,
            quorum_frac: 0.5,
            evict_after: 0,
        }
    }
}

impl RobustnessConfig {
    /// The quorum for `expected` awaited feedbacks.
    pub fn quorum(&self, expected: usize) -> usize {
        ((self.quorum_frac as f64 * expected as f64).ceil() as usize).max(1)
    }
}

/// GAN training hyper-parameters shared by all competitors.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GanHyper {
    /// Batch size `b`.
    pub batch: usize,
    /// Discriminator learning iterations per global iteration (`L` in
    /// Algorithm 1; the original GAN paper uses a small constant).
    pub disc_steps: usize,
    /// Generator objective (the paper's minimax `J_gen`, or the standard
    /// non-saturating variant used by practical ACGAN implementations).
    pub gen_loss: GenLossMode,
    /// Weight of the ACGAN auxiliary classification loss (0 disables).
    pub aux_weight: f32,
    /// Adam settings for the generator.
    pub adam_g: AdamConfig,
    /// Adam settings for the discriminator(s).
    pub adam_d: AdamConfig,
    /// Per-layer gradient clipping: each layer's gradient is rescaled to
    /// at most this L2 norm before the optimizer step. `0` disables
    /// clipping (the default — bit-identical to pre-guard behavior).
    pub clip_grad_norm: f32,
}

impl Default for GanHyper {
    fn default() -> Self {
        GanHyper {
            batch: 10,
            disc_steps: 1,
            gen_loss: GenLossMode::NonSaturating,
            aux_weight: 1.0,
            adam_g: AdamConfig::default(),
            adam_d: AdamConfig::default(),
            clip_grad_norm: 0.0,
        }
    }
}

/// The paper's `k`: how many distinct batches the server generates per
/// global iteration (§IV-B4, "the complexity vs. data diversity trade-off").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum KPolicy {
    /// `k = 1`: every worker receives the same batch (lowest server load).
    One,
    /// `k = max(1, ⌊log₂ N⌋)` — the paper's recommended setting.
    LogN,
    /// `k = N`: every worker gets a distinct batch (highest diversity).
    All,
    /// An explicit value (clamped to `[1, N]`).
    Fixed(usize),
}

impl KPolicy {
    /// Resolves the policy for `n` workers.
    pub fn resolve(self, n: usize) -> usize {
        let k = match self {
            KPolicy::One => 1,
            KPolicy::LogN => (n as f64).log2().floor() as usize,
            KPolicy::All => n,
            KPolicy::Fixed(k) => k,
        };
        k.clamp(1, n.max(1))
    }
}

/// How discriminators move between workers every `E` epochs (§IV-C1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapPolicy {
    /// A uniformly random derangement (gossip; preserves the
    /// one-discriminator-per-worker invariant — see DESIGN.md §2).
    Derangement,
    /// Deterministic rotation by one (for tests/ablations).
    Ring,
    /// No swapping (the paper's `E = ∞` ablation in Figure 4).
    Disabled,
}

/// Full MD-GAN configuration (Algorithm 1's inputs plus runtime knobs).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MdGanConfig {
    /// Number of workers `N`.
    pub workers: usize,
    /// Batch-diversity policy for `k`.
    pub k: KPolicy,
    /// Local epochs between swaps, `E` (a swap fires every `m·E/b`
    /// global iterations).
    pub epochs_per_swap: f32,
    /// Swap mechanism.
    pub swap: SwapPolicy,
    /// Shared GAN hyper-parameters.
    pub hyper: GanHyper,
    /// Total global iterations `I`.
    pub iterations: usize,
    /// Master seed (everything derives from it).
    pub seed: u64,
    /// Optional fail-stop crash schedule (Figure 5).
    #[serde(skip)]
    pub crash: CrashSchedule,
    /// Seeded lossy-network fault plan; [`FaultPlan::none`] keeps the
    /// perfect network.
    #[serde(skip)]
    pub fault: FaultPlan,
    /// Robust-runtime knobs (retries, quorum, failure detection).
    #[serde(skip)]
    pub robust: RobustnessConfig,
    /// Elastic-membership schedule (joins, graceful leaves, crashes);
    /// [`ChurnPlan::none`] keeps the paper's fixed N-worker star.
    #[serde(skip)]
    pub churn: ChurnPlan,
    /// Per-worker byzantine/free-rider attack assignment (§VII.3);
    /// shorter lists are padded with [`Attack::None`], empty keeps every
    /// worker honest.
    #[serde(skip)]
    pub attacks: Vec<Attack>,
    /// Server-side feedback aggregation rule ([`Aggregation::Mean`] is
    /// the paper's plain average).
    #[serde(skip)]
    pub aggregation: Aggregation,
    /// Server-side free-rider feedback forensics (disabled by default).
    #[serde(skip)]
    pub defense: DefenseConfig,
}

impl Default for MdGanConfig {
    fn default() -> Self {
        MdGanConfig {
            workers: 10,
            k: KPolicy::LogN,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper::default(),
            iterations: 1000,
            seed: 0,
            crash: CrashSchedule::none(),
            fault: FaultPlan::none(),
            robust: RobustnessConfig::default(),
            churn: ChurnPlan::none(),
            attacks: Vec::new(),
            aggregation: Aggregation::Mean,
            defense: DefenseConfig::default(),
        }
    }
}

impl MdGanConfig {
    /// Whether the runtimes should take the robust (oracle-free,
    /// fault-tolerant) path: an active fault plan, the free-rider
    /// defense, or an explicit opt-in.
    pub fn is_robust(&self) -> bool {
        self.robust.enabled || !self.fault.is_none() || self.defense.enabled
    }

    /// Total worker slots a run needs: the `workers` initial members plus
    /// one pre-allocated slot per planned joiner, so every runtime builds
    /// the same worker universe (models, RNG forks, shards) up front.
    pub fn total_workers(&self) -> usize {
        self.churn.max_workers(self.workers)
    }

    /// Global iterations between two swap events: `⌊m·E/b⌋` for local
    /// shard size `m` (at least 1).
    pub fn swap_interval(&self, shard_size: usize) -> usize {
        (((shard_size as f32) * self.epochs_per_swap / self.hyper.batch as f32).floor() as usize)
            .max(1)
    }

    /// Renders the configuration as one JSON object, for embedding in a
    /// telemetry [`RunRecord`](md_telemetry::RunRecord).
    pub fn to_json(&self) -> String {
        md_telemetry::json::Object::new()
            .field_str("system", "md-gan")
            .field_u64("workers", self.workers as u64)
            .field_str("k", &format!("{:?}", self.k))
            .field_f64("epochs_per_swap", self.epochs_per_swap as f64)
            .field_str("swap", &format!("{:?}", self.swap))
            .field_raw("hyper", &self.hyper.to_json())
            .field_u64("iterations", self.iterations as u64)
            .field_u64("seed", self.seed)
            .field_f64("drop_rate", f64::from(self.fault.drop))
            .field_bool("robust", self.is_robust())
            .field_str("aggregation", &format!("{:?}", self.aggregation))
            .field_u64(
                "attackers",
                self.attacks.iter().filter(|a| **a != Attack::None).count() as u64,
            )
            .field_bool("defense", self.defense.enabled)
            .build()
    }
}

impl GanHyper {
    /// Renders the shared hyper-parameters as one JSON object.
    pub fn to_json(&self) -> String {
        md_telemetry::json::Object::new()
            .field_u64("batch", self.batch as u64)
            .field_u64("disc_steps", self.disc_steps as u64)
            .field_str("gen_loss", &format!("{:?}", self.gen_loss))
            .field_f64("aux_weight", self.aux_weight as f64)
            .field_f64("lr_g", self.adam_g.lr as f64)
            .field_f64("lr_d", self.adam_d.lr as f64)
            .field_f64("clip_grad_norm", self.clip_grad_norm as f64)
            .build()
    }
}

/// FL-GAN configuration (§III.c).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FlGanConfig {
    /// Number of workers `N`.
    pub workers: usize,
    /// Local epochs per round, `E` (paper uses `E = 1`).
    pub epochs_per_round: f32,
    /// Shared GAN hyper-parameters.
    pub hyper: GanHyper,
    /// Total local iterations `I` (generator update count, the paper's
    /// x-axis).
    pub iterations: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FlGanConfig {
    fn default() -> Self {
        FlGanConfig {
            workers: 10,
            epochs_per_round: 1.0,
            hyper: GanHyper::default(),
            iterations: 1000,
            seed: 0,
        }
    }
}

impl FlGanConfig {
    /// Local iterations between two federated-averaging rounds.
    pub fn round_interval(&self, shard_size: usize) -> usize {
        (((shard_size as f32) * self.epochs_per_round / self.hyper.batch as f32).floor() as usize)
            .max(1)
    }

    /// Renders the configuration as one JSON object, for embedding in a
    /// telemetry [`RunRecord`](md_telemetry::RunRecord).
    pub fn to_json(&self) -> String {
        md_telemetry::json::Object::new()
            .field_str("system", "fl-gan")
            .field_u64("workers", self.workers as u64)
            .field_f64("epochs_per_round", self.epochs_per_round as f64)
            .field_raw("hyper", &self.hyper.to_json())
            .field_u64("iterations", self.iterations as u64)
            .field_u64("seed", self.seed)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_policy_resolution() {
        assert_eq!(KPolicy::One.resolve(10), 1);
        assert_eq!(KPolicy::LogN.resolve(10), 3); // floor(log2 10) = 3
        assert_eq!(KPolicy::LogN.resolve(50), 5);
        assert_eq!(KPolicy::LogN.resolve(1), 1); // clamped up
        assert_eq!(KPolicy::All.resolve(7), 7);
        assert_eq!(KPolicy::Fixed(3).resolve(10), 3);
        assert_eq!(KPolicy::Fixed(100).resolve(10), 10); // clamped down
        assert_eq!(KPolicy::Fixed(0).resolve(10), 1); // clamped up
    }

    #[test]
    fn swap_interval_is_m_e_over_b() {
        let mut cfg = MdGanConfig {
            epochs_per_swap: 1.0,
            ..MdGanConfig::default()
        };
        cfg.hyper.batch = 10;
        assert_eq!(cfg.swap_interval(100), 10);
        cfg.epochs_per_swap = 2.0;
        assert_eq!(cfg.swap_interval(100), 20);
        // Tiny shards still yield at least 1.
        assert_eq!(cfg.swap_interval(3), 1);
    }

    #[test]
    fn round_interval_matches_paper_e1() {
        let mut cfg = FlGanConfig {
            epochs_per_round: 1.0,
            ..FlGanConfig::default()
        };
        cfg.hyper.batch = 10;
        // m = 6000 (MNIST, 10 workers): a round every 600 iterations.
        assert_eq!(cfg.round_interval(6000), 600);
    }

    #[test]
    fn configs_render_as_json_objects() {
        let md = MdGanConfig::default().to_json();
        assert!(
            md.starts_with(r#"{"system":"md-gan","workers":10,"k":"LogN""#),
            "{md}"
        );
        assert!(md.contains(r#""hyper":{"batch":10,"#));
        let fl = FlGanConfig::default().to_json();
        assert!(fl.contains(r#""system":"fl-gan""#));
        for j in [md, fl] {
            assert!(j.starts_with('{') && j.ends_with('}'));
        }
    }

    #[test]
    fn defaults_are_paper_like() {
        let cfg = MdGanConfig::default();
        assert_eq!(cfg.workers, 10);
        assert_eq!(cfg.k, KPolicy::LogN);
        assert_eq!(cfg.epochs_per_swap, 1.0);
        assert_eq!(cfg.hyper.batch, 10);
    }
}
