//! Adversarial workers and robust feedback aggregation — the paper's
//! §VII.3 perspective, implemented.
//!
//! > "the learning process is most likely prone to workers having their
//! > discriminator lie to the server's generator (by sending erroneous or
//! > manipulated feedback). The global convergence [...] will be affected
//! > in an unknown proportion."
//!
//! We implement the classic feedback manipulations and, following the
//! Byzantine-tolerant gradient-descent line of work the paper cites \[46\],
//! coordinate-wise robust aggregators the server can use in place of the
//! plain average.

use crate::checkpoint::Checkpoint;
use crate::error::{ckerr, TrainError};
use crate::mdgan::worker::MdWorker;
use md_tensor::rng::Rng64;
use md_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// How a compromised worker manipulates its error feedback `F_n`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Attack {
    /// Honest worker.
    None,
    /// Sends `-scale · F_n` — pushes the generator *away* from fooling D.
    SignFlip {
        /// Magnitude multiplier (1.0 = pure sign flip).
        scale: f32,
    },
    /// Replaces the feedback with Gaussian noise of the given std.
    RandomNoise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Sends `factor · F_n` — gradient inflation, destabilizing Adam.
    Inflate {
        /// Magnitude multiplier (> 1).
        factor: f32,
    },
    /// Free-rider with no real data: fabricates the feedback from fresh
    /// Gaussian noise every iteration (arXiv:2201.09967's data-free
    /// baseline attacker).
    PureNoise {
        /// Noise standard deviation.
        std: f32,
    },
    /// Free-rider that records the first feedback it ever computed and
    /// replays that stale tensor on every later iteration — a delayed
    /// echo of a previously observed feedback.
    DelayedEcho,
    /// Free-rider that keeps a frozen snapshot of its *initial*
    /// (pre-trained, never-updated) discriminator and answers every
    /// iteration with that stale model's feedback on the current `X_g`,
    /// mimicking a plausibly-shaped gradient without contributing data.
    PretrainedMimic,
}

impl Attack {
    /// Applies the *stateless* manipulations to a feedback tensor.
    ///
    /// The stateful free-rider strategies need per-worker memory and a
    /// worker handle; they live in [`AttackState::apply`] and fall back to
    /// the honest feedback here.
    pub fn apply(&self, feedback: &Tensor, rng: &mut Rng64) -> Tensor {
        match *self {
            Attack::None | Attack::DelayedEcho | Attack::PretrainedMimic => feedback.clone(),
            Attack::SignFlip { scale } => feedback.scale(-scale),
            Attack::RandomNoise { std } | Attack::PureNoise { std } => {
                Tensor::randn(feedback.shape(), rng).scale(std)
            }
            Attack::Inflate { factor } => feedback.scale(factor),
        }
    }

    /// True for the honest case.
    pub fn is_honest(&self) -> bool {
        matches!(self, Attack::None)
    }

    /// True for the stateful free-rider strategies of arXiv:2201.09967.
    pub fn is_freerider(&self) -> bool {
        matches!(
            self,
            Attack::PureNoise { .. } | Attack::DelayedEcho | Attack::PretrainedMimic
        )
    }
}

/// Pads a configured attack list to the full worker universe (planned
/// joiners included); an empty list means all-honest.
///
/// # Panics
/// Panics if more attacks than worker slots are supplied.
pub fn resolve_attacks(attacks: &[Attack], total: usize) -> Vec<Attack> {
    assert!(
        attacks.len() <= total,
        "{} attack entries for {total} worker slots",
        attacks.len()
    );
    let mut v = attacks.to_vec();
    v.resize(total, Attack::None);
    v
}

/// Per-worker attack state: every worker (honest or not) carries one, so
/// all three runtimes apply manipulations identically and independently
/// of iteration order.
///
/// A turn's noise stream is keyed by the master seed, the worker's slot and
/// the worker's discriminator step count — worker `i` draws the same noise
/// whether the runtime visits workers sequentially, on threads, or in async
/// completion order, and a resumed run draws what an uninterrupted one does.
pub struct AttackState {
    attack: Attack,
    key: u64,
    slot: u64,
    /// [`Attack::DelayedEcho`]'s recorded feedback (first one computed).
    echo: Option<Tensor>,
    /// [`Attack::PretrainedMimic`]'s frozen discriminator snapshot.
    stale_disc: Option<Vec<f32>>,
}

impl AttackState {
    /// Builds the state for worker slot `wi` (0-based). `stale_disc` must
    /// be the worker's initial discriminator parameters when the attack is
    /// [`Attack::PretrainedMimic`]; it is ignored otherwise.
    pub fn new(attack: Attack, master_seed: u64, wi: usize, stale_disc: Option<Vec<f32>>) -> Self {
        AttackState {
            attack,
            key: master_seed ^ 0xA77AC4,
            slot: wi as u64,
            echo: None,
            stale_disc: match attack {
                Attack::PretrainedMimic => {
                    Some(stale_disc.expect("mimic attack needs a discriminator snapshot"))
                }
                _ => None,
            },
        }
    }

    /// The configured attack.
    pub fn attack(&self) -> Attack {
        self.attack
    }

    /// Transforms the honestly computed feedback into what the worker
    /// actually sends. `xg`/`xg_labels` are the generated batch the
    /// feedback answers (the mimic strategy re-evaluates them on its
    /// stale discriminator). Honest workers pass through untouched.
    pub fn apply(
        &mut self,
        worker: &mut MdWorker,
        honest: Tensor,
        xg: &Tensor,
        xg_labels: &[usize],
    ) -> Tensor {
        match self.attack {
            Attack::None => honest,
            Attack::SignFlip { .. } | Attack::RandomNoise { .. } | Attack::Inflate { .. } => {
                self.attack.apply(&honest, &mut self.stream(worker))
            }
            Attack::PureNoise { std } => {
                Tensor::randn(honest.shape(), &mut self.stream(worker)).scale(std)
            }
            Attack::DelayedEcho => self.echo.get_or_insert(honest).clone(),
            Attack::PretrainedMimic => {
                let stale = self.stale_disc.as_ref().expect("mimic snapshot present");
                worker.stale_feedback(stale, xg, xg_labels)
            }
        }
    }

    /// [`Attack::DelayedEcho`]'s recorded feedback, once there is one.
    pub(crate) fn echo(&self) -> Option<&Tensor> {
        self.echo.as_ref()
    }

    /// The noise stream of `worker`'s current turn.
    fn stream(&self, worker: &MdWorker) -> Rng64 {
        Rng64::keyed(self.key, self.slot, worker.d_steps())
    }
}

/// Writes what the attack states carry between turns besides their
/// configuration: each [`Attack::DelayedEcho`] attacker's recorded feedback
/// ([`AttackState::echo`], by slot), as `echo_n` (1-based slot `n`), once
/// it has recorded one.
pub(crate) fn push_echoes<'a>(
    ck: &mut Checkpoint,
    echoes: impl IntoIterator<Item = Option<&'a Tensor>>,
) {
    for (i, echo) in echoes.into_iter().enumerate() {
        if let Some(echo) = echo {
            ck.push_tensor(&format!("echo_{}", i + 1), echo);
        }
    }
}

/// Reads back what [`push_echoes`] wrote: a slot without a section has
/// recorded nothing yet.
pub(crate) fn restore_echoes(
    ck: &Checkpoint,
    attacks: &mut [AttackState],
) -> Result<(), TrainError> {
    for (i, a) in attacks.iter_mut().enumerate() {
        let name = format!("echo_{}", i + 1);
        let echo = ck.get(&name).map(|_| ck.require_tensor(&name));
        a.echo = echo.transpose().map_err(ckerr)?;
    }
    Ok(())
}

/// How the server merges the feedbacks of the workers sharing one
/// generated batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Aggregation {
    /// Plain averaging — the paper's choice ("the most common way to
    /// aggregate updates processed in parallel").
    #[default]
    Mean,
    /// Coordinate-wise median — tolerates up to ⌊(g-1)/2⌋ byzantine
    /// members per batch group.
    CoordinateMedian,
    /// Coordinate-wise trimmed mean: drop the `trim` smallest and largest
    /// values per coordinate, average the rest.
    TrimmedMean {
        /// Values trimmed from each tail (per coordinate).
        trim: usize,
    },
}

impl Aggregation {
    /// Aggregates a non-empty group of equally-shaped feedbacks into one
    /// "consensus" gradient of the same scale as a single member.
    ///
    /// # Panics
    /// Panics on an empty group, shape mismatches, or over-trimming.
    pub fn aggregate(&self, group: &[&Tensor]) -> Tensor {
        assert!(!group.is_empty(), "aggregate of empty group");
        let shape = group[0].shape().to_vec();
        for t in group {
            assert_eq!(t.shape(), &shape[..], "feedback shape mismatch");
        }
        let g = group.len();
        match *self {
            Aggregation::Mean => {
                let mut acc = group[0].clone();
                for t in &group[1..] {
                    acc.add_assign(t);
                }
                acc.scale(1.0 / g as f32)
            }
            Aggregation::CoordinateMedian => {
                let mut out = Tensor::zeros(&shape);
                let mut column = vec![0.0f32; g];
                for i in 0..out.len() {
                    for (c, t) in column.iter_mut().zip(group) {
                        *c = t.data()[i];
                    }
                    // total_cmp: a hostile NaN coordinate must not panic
                    // the server (NaN sorts after +Inf, deterministically).
                    column.sort_unstable_by(f32::total_cmp);
                    out.data_mut()[i] = if g % 2 == 1 {
                        column[g / 2]
                    } else {
                        0.5 * (column[g / 2 - 1] + column[g / 2])
                    };
                }
                out
            }
            Aggregation::TrimmedMean { trim } => {
                assert!(
                    2 * trim < g,
                    "trimming {trim} from each tail of a group of {g}"
                );
                let kept = (g - 2 * trim) as f32;
                let mut out = Tensor::zeros(&shape);
                let mut column = vec![0.0f32; g];
                for i in 0..out.len() {
                    for (c, t) in column.iter_mut().zip(group) {
                        *c = t.data()[i];
                    }
                    // total_cmp: a hostile NaN coordinate must not panic
                    // the server (NaN sorts after +Inf, deterministically).
                    column.sort_unstable_by(f32::total_cmp);
                    out.data_mut()[i] = column[trim..g - trim].iter().sum::<f32>() / kept;
                }
                out
            }
        }
    }
}

/// One of each [`Attack`] variant, for tests that must hold under all.
#[cfg(test)]
pub(crate) const EVERY_ATTACK: [Attack; 7] = [
    Attack::None,
    Attack::SignFlip { scale: 1.0 },
    Attack::RandomNoise { std: 1.0 },
    Attack::Inflate { factor: 4.0 },
    Attack::PureNoise { std: 1.0 },
    Attack::DelayedEcho,
    Attack::PretrainedMimic,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::new(&[v.len()], v.to_vec())
    }

    #[test]
    fn attacks_transform_feedback() {
        let mut rng = Rng64::seed_from_u64(1);
        let f = t(&[1.0, -2.0, 3.0]);
        assert_eq!(Attack::None.apply(&f, &mut rng).data(), f.data());
        assert_eq!(
            Attack::SignFlip { scale: 1.0 }.apply(&f, &mut rng).data(),
            &[-1.0, 2.0, -3.0]
        );
        assert_eq!(
            Attack::Inflate { factor: 10.0 }.apply(&f, &mut rng).data(),
            &[10.0, -20.0, 30.0]
        );
        let noisy = Attack::RandomNoise { std: 1.0 }.apply(&f, &mut rng);
        assert_ne!(noisy.data(), f.data());
        assert_eq!(noisy.shape(), f.shape());
    }

    #[test]
    fn mean_is_the_average() {
        let a = t(&[1.0, 2.0]);
        let b = t(&[3.0, 6.0]);
        let m = Aggregation::Mean.aggregate(&[&a, &b]);
        assert_eq!(m.data(), &[2.0, 4.0]);
    }

    #[test]
    fn median_ignores_one_outlier() {
        let honest1 = t(&[1.0, 1.0]);
        let honest2 = t(&[1.2, 0.8]);
        let evil = t(&[1000.0, -1000.0]);
        let m = Aggregation::CoordinateMedian.aggregate(&[&honest1, &evil, &honest2]);
        assert!((m.data()[0] - 1.2).abs() < 1e-6);
        assert!((m.data()[1] - 0.8).abs() < 1e-6);
        // The mean would have been wrecked.
        let mean = Aggregation::Mean.aggregate(&[&honest1, &evil, &honest2]);
        assert!(mean.data()[0] > 300.0);
    }

    #[test]
    fn even_group_median_averages_middles() {
        let g: Vec<Tensor> = [0.0f32, 1.0, 2.0, 100.0].iter().map(|&v| t(&[v])).collect();
        let refs: Vec<&Tensor> = g.iter().collect();
        let m = Aggregation::CoordinateMedian.aggregate(&refs);
        assert!((m.data()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let g: Vec<Tensor> = [-100.0f32, 1.0, 2.0, 3.0, 100.0]
            .iter()
            .map(|&v| t(&[v]))
            .collect();
        let refs: Vec<&Tensor> = g.iter().collect();
        let m = Aggregation::TrimmedMean { trim: 1 }.aggregate(&refs);
        assert!((m.data()[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "trimming")]
    fn over_trimming_rejected() {
        let a = t(&[1.0]);
        let b = t(&[2.0]);
        Aggregation::TrimmedMean { trim: 1 }.aggregate(&[&a, &b]);
    }

    #[test]
    fn non_finite_feedbacks_do_not_panic_any_aggregator() {
        // NaN-poisoning regression: a single hostile NaN/±Inf coordinate
        // used to panic the partial_cmp sort inside the server.
        let honest1 = t(&[1.0, 1.0, 1.0]);
        let honest2 = t(&[1.2, 0.8, 1.1]);
        let honest3 = t(&[0.9, 1.1, 0.95]);
        let poison = t(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
        for agg in [
            Aggregation::Mean,
            Aggregation::CoordinateMedian,
            Aggregation::TrimmedMean { trim: 1 },
        ] {
            let m = agg.aggregate(&[&honest1, &poison, &honest2, &honest3]);
            assert_eq!(m.shape(), honest1.shape(), "{agg:?}");
        }
        // The robust aggregators stay *useful*, not just alive: with four
        // members the median averages the two middles and trim=1 drops
        // both tails, so every output coordinate is finite and honest.
        for agg in [
            Aggregation::CoordinateMedian,
            Aggregation::TrimmedMean { trim: 1 },
        ] {
            let m = agg.aggregate(&[&honest1, &poison, &honest2, &honest3]);
            assert!(
                m.data().iter().all(|v| v.is_finite()),
                "{agg:?} leaked a non-finite coordinate: {:?}",
                m.data()
            );
        }
    }

    #[test]
    fn freerider_attacks_classified() {
        assert!(Attack::PureNoise { std: 1.0 }.is_freerider());
        assert!(Attack::DelayedEcho.is_freerider());
        assert!(Attack::PretrainedMimic.is_freerider());
        assert!(!Attack::None.is_freerider());
        assert!(!Attack::SignFlip { scale: 1.0 }.is_freerider());
    }

    #[test]
    fn resolve_attacks_pads_with_honest() {
        let v = resolve_attacks(&[Attack::DelayedEcho], 3);
        assert_eq!(v, vec![Attack::DelayedEcho, Attack::None, Attack::None]);
        assert_eq!(resolve_attacks(&[], 2), vec![Attack::None; 2]);
    }

    #[test]
    #[should_panic(expected = "attack entries")]
    fn resolve_attacks_rejects_overlong_lists() {
        resolve_attacks(&[Attack::None; 3], 2);
    }

    #[test]
    fn attack_streams_are_per_slot_and_per_step() {
        let f = t(&[0.5, -0.5, 0.25]);
        let draw = |wi: usize, step: u64| {
            let s = AttackState::new(Attack::PureNoise { std: 1.0 }, 42, wi, None);
            let mut rng = Rng64::keyed(s.key, s.slot, step);
            s.attack.apply(&f, &mut rng).into_data()
        };
        assert_eq!(draw(0, 3), draw(0, 3), "same slot and step, same stream");
        assert_ne!(draw(0, 3), draw(1, 3), "distinct slots, distinct streams");
        assert_ne!(draw(0, 3), draw(0, 4), "distinct steps, distinct streams");
    }

    #[test]
    fn aggregators_agree_on_identical_inputs() {
        let a = t(&[0.5, -0.25, 4.0]);
        let group = [&a, &a, &a];
        for agg in [
            Aggregation::Mean,
            Aggregation::CoordinateMedian,
            Aggregation::TrimmedMean { trim: 1 },
        ] {
            let m = agg.aggregate(&group);
            assert_eq!(m.data(), a.data(), "{agg:?}");
        }
    }
}
