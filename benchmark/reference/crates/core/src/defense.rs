//! Server-side feedback forensics against free-rider workers.
//!
//! The paper's §VII.3 warns that MD-GAN "is most likely prone to workers
//! having their discriminator lie to the server"; arXiv:2201.09967 attacks
//! exactly this surface with data-free workers submitting plausible
//! feedbacks. The server cannot inspect a worker's data, but it *can*
//! inspect the feedbacks themselves. [`FeedbackForensics`] keeps per-worker
//! statistics over the incoming `F_n` streams and scores each worker
//! against the population median every iteration:
//!
//! * **norm score** — `|ln‖F_n‖ − median(ln‖F‖)|`: fabricated-noise
//!   feedbacks do not match the gradient magnitudes the live population
//!   produces;
//! * **self cosine** — cosine of the worker's feedback against its own
//!   previous one: honest feedbacks answer *fresh* generated batches every
//!   iteration and never repeat, while a delayed-echo replay is (near-)
//!   identical to an earlier transmission;
//! * **peer cosine** — cosine against the sum of the other feedbacks of
//!   the same batch group; each worker's *gap* below the group median is
//!   smoothed with an EWMA and z-scored against the population's median
//!   absolute deviation: honest high-dimensional feedbacks are nearly
//!   orthogonal, so a stale or fabricated gradient shows up as a small
//!   but *persistent* bias below the live consensus direction rather
//!   than a single large deviation.
//!
//! Any single outlier observation is **quarantined** — dropped from the
//! current aggregation — immediately, because even a handful of
//! fabricated feedbacks can poison the generator's optimizer state. A
//! worker that stays an outlier for [`DefenseConfig::flag_after`]
//! consecutive scored iterations is **flagged**: its feedbacks stay
//! quarantined and the runtime feeds the existing
//! [`FailureDetector`](md_simnet::FailureDetector) a *miss* for it each
//! iteration, graduating the verdict into the PR 3/8 suspicion → eviction
//! → [`Membership`](md_simnet::Membership) path (SPLIT then rebalances
//! over the surviving honest view). Probe rounds keep the path reversible:
//! a flagged worker whose probed feedback scores as an inlier is cleared
//! and rejoins. Non-finite feedbacks are quarantined immediately —
//! independent of flagging — so a single hostile NaN can never reach the
//! aggregator.
//!
//! Everything here is pure integer/float bookkeeping over the feedback
//! bytes in ascending worker order, so the sequential and threaded
//! runtimes — which present identical bytes in identical order — make
//! identical decisions, preserving the bit-identity contract.

use md_tensor::Tensor;

/// Knobs of the server-side free-rider defense.
#[derive(Clone, Copy, Debug)]
pub struct DefenseConfig {
    /// Master switch; off keeps every code path byte-identical to the
    /// undefended runtime.
    pub enabled: bool,
    /// Outlier threshold on `|ln‖F_n‖ − median(ln‖F‖)|` (0.7 ≈ flags a
    /// worker whose feedback norm is off the population median by ~2×).
    pub norm_tol: f32,
    /// Self-cosine above which a feedback counts as an echo replay of the
    /// worker's own earlier transmission.
    pub echo_tol: f32,
    /// MAD-z threshold on the smoothed peer-cosine gap: a worker whose
    /// EWMA of `median(peer cos) − own peer cos` sits this many median
    /// absolute deviations above the population (and above a small
    /// absolute floor) is a direction outlier. Real feedbacks are nearly
    /// orthogonal, so the signature of a stale or fabricated gradient is
    /// a *persistent small* bias below the group — which smoothing
    /// accumulates and the scale-free z-score exposes.
    pub dir_tol: f32,
    /// Consecutive outlier iterations before a worker is flagged.
    pub flag_after: u32,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            enabled: false,
            norm_tol: 0.7,
            echo_tol: 0.999,
            dir_tol: 6.0,
            flag_after: 3,
        }
    }
}

/// One scored observation of one worker's feedback.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// 0-based worker slot.
    pub worker: usize,
    /// `|ln‖F_n‖ − median(ln‖F‖)|` over the current population.
    pub norm_score: f32,
    /// Cosine against the worker's own previous feedback (0 when none).
    pub self_cos: f32,
    /// Cosine against the sum of same-group peers (NaN when the group is
    /// too small to score).
    pub peer_cos: f32,
    /// Whether this iteration's feedback scored as an outlier.
    pub outlier: bool,
    /// Whether the feedback must be discarded before aggregation.
    pub quarantined: bool,
    /// The worker crossed `flag_after` this iteration.
    pub newly_flagged: bool,
    /// A previously flagged worker scored as an inlier and was cleared.
    pub cleared: bool,
}

#[derive(Clone, Debug, Default)]
struct WorkerTrack {
    /// Previous feedback (flat copy) for the self-cosine signal.
    prev: Option<Vec<f32>>,
    /// Natural log of the last observed feedback norm.
    last_ln_norm: Option<f32>,
    /// EWMA of `median(peer cos) − own peer cos` over scored iterations.
    dir_gap_ewma: Option<f32>,
    /// Consecutive outlier observations.
    streak: u32,
    flagged: bool,
}

/// Minimum smoothed peer-cosine gap (absolute) before the MAD-z direction
/// score can fire; keeps tightly-clustered honest populations from
/// flagging each other over sub-noise deviations.
const DIR_GAP_FLOOR: f32 = 0.04;

/// Per-worker running feedback forensics (see the module docs).
pub struct FeedbackForensics {
    cfg: DefenseConfig,
    tracks: Vec<WorkerTrack>,
}

fn dot(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

fn norm(a: &[f32]) -> f64 {
    dot(a, a).sqrt()
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (na, nb) = (norm(a), norm(b));
    if na <= 0.0 || nb <= 0.0 || !na.is_finite() || !nb.is_finite() {
        return 0.0;
    }
    (dot(a, b) / (na * nb)) as f32
}

fn median(mut v: Vec<f32>) -> f32 {
    debug_assert!(!v.is_empty());
    v.sort_unstable_by(f32::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

impl FeedbackForensics {
    /// Builds the forensics state for `total` worker slots.
    pub fn new(cfg: DefenseConfig, total: usize) -> Self {
        FeedbackForensics {
            cfg,
            tracks: (0..total).map(|_| WorkerTrack::default()).collect(),
        }
    }

    /// Whether the worker is currently flagged as a suspected free-rider.
    pub fn is_flagged(&self, wi: usize) -> bool {
        self.tracks[wi].flagged
    }

    /// Currently flagged worker slots (ascending).
    pub fn flagged(&self) -> Vec<usize> {
        (0..self.tracks.len())
            .filter(|&w| self.tracks[w].flagged)
            .collect()
    }

    /// Drops a worker from the population statistics (evicted / left).
    pub fn retire(&mut self, wi: usize) {
        self.tracks[wi] = WorkerTrack {
            flagged: self.tracks[wi].flagged,
            ..WorkerTrack::default()
        };
    }

    /// Scores one iteration's gathered feedbacks: `(worker slot, batch
    /// group id, feedback)` in **ascending worker order** (both runtimes
    /// deliver them sorted). Returns one verdict per item, same order.
    pub fn observe(&mut self, items: &[(usize, usize, &Tensor)]) -> Vec<Verdict> {
        debug_assert!(items.windows(2).all(|w| w[0].0 < w[1].0), "sorted by slot");
        let finite: Vec<bool> = items
            .iter()
            .map(|(_, _, f)| f.data().iter().all(|v| v.is_finite()))
            .collect();

        // Population norm statistics over this iteration's *finite*
        // feedbacks plus the last-seen norms of absent healthy workers
        // (a running view, so a thin probe round still has a population).
        for (k, &(wi, _, f)) in items.iter().enumerate() {
            if finite[k] {
                self.tracks[wi].last_ln_norm = Some(norm(f.data()).max(1e-30).ln() as f32);
            }
        }
        let ln_norms: Vec<f32> = self.tracks.iter().filter_map(|t| t.last_ln_norm).collect();
        let med_ln = if ln_norms.is_empty() {
            0.0
        } else {
            median(ln_norms)
        };

        // Peer-direction statistics per batch group (needs ≥ 3 members so
        // a median over the group is meaningfully honest-weighted).
        let mut peer_cos: Vec<f32> = vec![f32::NAN; items.len()];
        let mut groups: Vec<usize> = items.iter().map(|&(_, g, _)| g).collect();
        groups.sort_unstable();
        groups.dedup();
        for g in groups {
            let members: Vec<usize> = (0..items.len())
                .filter(|&k| items[k].1 == g && finite[k])
                .collect();
            if members.len() < 3 {
                continue;
            }
            let len = items[members[0]].2.len();
            let mut total = vec![0.0f64; len];
            for &k in &members {
                for (acc, &v) in total.iter_mut().zip(items[k].2.data()) {
                    *acc += v as f64;
                }
            }
            for &k in &members {
                let rest: Vec<f32> = total
                    .iter()
                    .zip(items[k].2.data())
                    .map(|(&s, &v)| (s - v as f64) as f32)
                    .collect();
                peer_cos[k] = cosine(items[k].2.data(), &rest);
            }
        }
        // Smooth each scored worker's gap below the group's median peer
        // cosine, then z-score the smoothed gaps against the population's
        // median absolute deviation. A fabricated or stale gradient sits
        // a *little* below the group every single iteration; the EWMA
        // accumulates that bias out of the per-iteration noise.
        let mut dir_outlier: Vec<bool> = vec![false; items.len()];
        {
            let scored: Vec<f32> = peer_cos.iter().copied().filter(|c| !c.is_nan()).collect();
            if !scored.is_empty() {
                let med_pc = median(scored);
                for (k, &(wi, _, _)) in items.iter().enumerate() {
                    if !peer_cos[k].is_nan() {
                        let gap = med_pc - peer_cos[k];
                        let track = &mut self.tracks[wi];
                        track.dir_gap_ewma = Some(match track.dir_gap_ewma {
                            Some(e) => 0.9 * e + 0.1 * gap,
                            None => gap,
                        });
                    }
                }
                let ewmas: Vec<f32> = items
                    .iter()
                    .filter_map(|&(wi, _, _)| self.tracks[wi].dir_gap_ewma)
                    .collect();
                if ewmas.len() >= 3 {
                    let med_e = median(ewmas.clone());
                    let mad = median(ewmas.iter().map(|e| (e - med_e).abs()).collect::<Vec<_>>())
                        .max(1e-3);
                    for (k, &(wi, _, _)) in items.iter().enumerate() {
                        if let Some(e) = self.tracks[wi].dir_gap_ewma {
                            let dev = e - med_e;
                            dir_outlier[k] = dev > self.cfg.dir_tol * mad && dev > DIR_GAP_FLOOR;
                        }
                    }
                }
            }
        }

        let mut out = Vec::with_capacity(items.len());
        for (k, &(wi, _, f)) in items.iter().enumerate() {
            let track = &mut self.tracks[wi];
            let norm_score = if finite[k] {
                (track.last_ln_norm.unwrap_or(0.0) - med_ln).abs()
            } else {
                f32::INFINITY
            };
            let self_cos = match (&track.prev, finite[k]) {
                (Some(prev), true) if prev.len() == f.len() => cosine(f.data(), prev),
                _ => 0.0,
            };
            let pc = peer_cos[k];
            let outlier = !finite[k]
                || norm_score > self.cfg.norm_tol
                || self_cos >= self.cfg.echo_tol
                || dir_outlier[k];

            let was_flagged = track.flagged;
            let mut newly_flagged = false;
            let mut cleared = false;
            if outlier {
                track.streak = track.streak.saturating_add(1);
                if !track.flagged && track.streak >= self.cfg.flag_after.max(1) {
                    track.flagged = true;
                    newly_flagged = true;
                }
            } else {
                track.streak = 0;
                if track.flagged {
                    track.flagged = false;
                    cleared = true;
                }
            }
            if finite[k] {
                track.prev = Some(f.data().to_vec());
            }
            out.push(Verdict {
                worker: wi,
                norm_score,
                self_cos,
                peer_cos: pc,
                outlier,
                // Outlier observations are excluded from aggregation right
                // away — a few fabricated-noise feedbacks are enough to
                // pollute the generator's Adam second moments for hundreds
                // of iterations — while flagging (and the eviction it
                // graduates into) still requires a full streak.
                quarantined: !finite[k] || outlier || was_flagged || track.flagged,
                newly_flagged,
                cleared,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_tensor::rng::Rng64;

    fn t(v: &[f32]) -> Tensor {
        Tensor::new(&[v.len()], v.to_vec())
    }

    fn cfg() -> DefenseConfig {
        DefenseConfig {
            enabled: true,
            ..DefenseConfig::default()
        }
    }

    /// Four honest-ish feedbacks around unit norm, fresh each call.
    fn honest(rng: &mut Rng64) -> Tensor {
        let base = Tensor::randn(&[8], rng);
        let n = base.data().iter().map(|v| v * v).sum::<f32>().sqrt();
        base.scale(1.0 / n.max(1e-9))
    }

    #[test]
    fn honest_population_is_never_flagged() {
        let mut fx = FeedbackForensics::new(cfg(), 4);
        let mut rng = Rng64::seed_from_u64(1);
        let mut observations = 0u32;
        let mut quarantined = 0u32;
        for _ in 0..20 {
            let fs: Vec<Tensor> = (0..4).map(|_| honest(&mut rng)).collect();
            let items: Vec<(usize, usize, &Tensor)> =
                fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
            let verdicts = fx.observe(&items);
            observations += verdicts.len() as u32;
            quarantined += verdicts.iter().filter(|v| v.quarantined).count() as u32;
        }
        // Single-iteration false-positive quarantines are tolerated (the
        // 8-dim toy feedbacks here are far noisier than real ones); a flag
        // — three in a row for the same worker — is not.
        assert!(fx.flagged().is_empty());
        assert!(
            quarantined * 4 < observations,
            "{quarantined}/{observations} honest observations quarantined"
        );
    }

    #[test]
    fn norm_outlier_is_flagged_after_streak_and_quarantined() {
        let mut fx = FeedbackForensics::new(cfg(), 4);
        let mut rng = Rng64::seed_from_u64(2);
        let mut flagged_at = None;
        for i in 0..6 {
            let mut fs: Vec<Tensor> = (0..4).map(|_| honest(&mut rng)).collect();
            fs[2] = fs[2].scale(40.0); // loud fabricated noise
            let items: Vec<(usize, usize, &Tensor)> =
                fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
            let vs = fx.observe(&items);
            assert!(vs[2].outlier, "iteration {i}");
            assert!(vs[2].quarantined, "outliers never reach the aggregator");
            if vs[2].newly_flagged {
                flagged_at = Some(i);
            }
        }
        assert_eq!(flagged_at, Some(2), "flag_after=3 consecutive outliers");
        assert!(fx.is_flagged(2));
        assert!(!fx.is_flagged(0));
    }

    #[test]
    fn echo_replay_is_caught_by_self_cosine() {
        let mut fx = FeedbackForensics::new(cfg(), 3);
        let mut rng = Rng64::seed_from_u64(3);
        let stale = honest(&mut rng);
        for i in 0..6 {
            let fs: Vec<Tensor> = vec![honest(&mut rng), honest(&mut rng), stale.clone()];
            let items: Vec<(usize, usize, &Tensor)> =
                fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
            let vs = fx.observe(&items);
            if i >= 1 {
                assert!(vs[2].self_cos > 0.999, "identical replay at {i}");
                assert!(vs[2].outlier);
            }
        }
        assert!(fx.is_flagged(2));
    }

    #[test]
    fn direction_outlier_is_caught_by_peer_cosine() {
        let mut fx = FeedbackForensics::new(cfg(), 4);
        let mut rng = Rng64::seed_from_u64(4);
        // Honest workers share a direction (same generated batch) plus a
        // fresh per-iteration perturbation; the free-rider is
        // anti-correlated with matching norm — invisible to the norm
        // score and the echo check, caught by the peer cosine.
        let shared = honest(&mut rng);
        let noisy = |sign: f32, rng: &mut Rng64| {
            let mut v: Vec<f32> = shared.data().to_vec();
            let jitter = honest(rng);
            for (x, j) in v.iter_mut().zip(jitter.data()) {
                *x = sign * (*x + 0.2 * j);
            }
            t(&v)
        };
        for _ in 0..4 {
            let fs: Vec<Tensor> = vec![
                noisy(1.0, &mut rng),
                noisy(1.0, &mut rng),
                noisy(1.0, &mut rng),
                noisy(-1.0, &mut rng),
            ];
            let items: Vec<(usize, usize, &Tensor)> =
                fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
            let vs = fx.observe(&items);
            assert!(vs[3].peer_cos < 0.0);
            assert!(vs[3].outlier);
            assert!(!vs[0].outlier && !vs[1].outlier && !vs[2].outlier);
        }
        assert!(fx.is_flagged(3));
    }

    #[test]
    fn non_finite_feedback_is_quarantined_immediately() {
        let mut fx = FeedbackForensics::new(cfg(), 3);
        let mut rng = Rng64::seed_from_u64(5);
        let fs: Vec<Tensor> = vec![honest(&mut rng), t(&[f32::NAN; 8]), honest(&mut rng)];
        let items: Vec<(usize, usize, &Tensor)> =
            fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
        let vs = fx.observe(&items);
        assert!(vs[1].quarantined, "quarantined before any flag");
        assert!(!fx.is_flagged(1), "one observation is not yet a flag");
        assert!(!vs[0].quarantined && !vs[2].quarantined);
    }

    #[test]
    fn flagged_worker_clears_on_inlier_probe() {
        let mut fx = FeedbackForensics::new(cfg(), 3);
        let mut rng = Rng64::seed_from_u64(6);
        for _ in 0..4 {
            let mut fs: Vec<Tensor> = (0..3).map(|_| honest(&mut rng)).collect();
            fs[0] = fs[0].scale(50.0);
            let items: Vec<(usize, usize, &Tensor)> =
                fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
            fx.observe(&items);
        }
        assert!(fx.is_flagged(0));
        // The worker comes back honest: cleared, feedback kept.
        let fs: Vec<Tensor> = (0..3).map(|_| honest(&mut rng)).collect();
        let items: Vec<(usize, usize, &Tensor)> =
            fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
        let vs = fx.observe(&items);
        assert!(vs[0].cleared);
        assert!(!fx.is_flagged(0));
    }

    #[test]
    fn retire_freezes_population_stats() {
        let mut fx = FeedbackForensics::new(cfg(), 3);
        let mut rng = Rng64::seed_from_u64(7);
        let fs: Vec<Tensor> = (0..3).map(|_| honest(&mut rng)).collect();
        let items: Vec<(usize, usize, &Tensor)> =
            fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
        fx.observe(&items);
        fx.retire(2);
        assert!(!fx.is_flagged(2));
        // Observing the remaining two still works.
        let fs: Vec<Tensor> = (0..2).map(|_| honest(&mut rng)).collect();
        let items: Vec<(usize, usize, &Tensor)> =
            fs.iter().enumerate().map(|(w, f)| (w, 0, f)).collect();
        let vs = fx.observe(&items);
        assert_eq!(vs.len(), 2);
    }
}
