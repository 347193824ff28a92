//! Score timelines: the measurement protocol of Figures 3-6.
//!
//! The paper computes the MNIST/Inception Score and the FID "every 1,000
//! iterations using a sample of 500 generated data", with the FID computed
//! "using a batch of the same size from the test dataset". The
//! [`Evaluator`] reproduces exactly that: it owns the trained scorer
//! classifier, a fixed test sample, and the key of the evaluation noise,
//! which is drawn per scored iteration — every competitor scored at the
//! same iteration by the same evaluator sees the same noise.

use md_data::Dataset;
use md_metrics::classifier::{Scorer, ScorerConfig};
use md_metrics::scores::{fid, inception_score, GanScores};
use md_nn::gan::Generator;
use md_telemetry::{Event, Phase, Recorder};
use md_tensor::rng::Rng64;
use md_tensor::Tensor;

/// Periodic GAN scoring against a held-out test sample.
pub struct Evaluator {
    scorer: Scorer,
    real_features: Tensor,
    sample_n: usize,
    /// Key of the evaluation-noise streams: the noise of the point at
    /// iteration `i` comes from stream `(key, 0, i)`.
    key: u64,
}

impl Evaluator {
    /// Trains the scorer on `train` and caches features of a `sample_n`-sized
    /// sample of `test` (the paper's 500).
    pub fn new(train: &Dataset, test: &Dataset, sample_n: usize, seed: u64) -> Self {
        Self::with_scorer_config(train, test, sample_n, seed, ScorerConfig::default())
    }

    /// As [`Evaluator::new`] with explicit scorer hyper-parameters.
    pub fn with_scorer_config(
        train: &Dataset,
        test: &Dataset,
        sample_n: usize,
        seed: u64,
        cfg: ScorerConfig,
    ) -> Self {
        let mut rng = Rng64::seed_from_u64(seed ^ 0xE7A1);
        let mut scorer = Scorer::train(train, cfg, &mut rng);
        let n = sample_n.min(test.len());
        let idx = rng.sample_distinct(test.len(), n);
        let (real_imgs, _) = test.batch(&idx);
        let (real_features, _) = scorer.features_and_probs(&real_imgs);
        Evaluator {
            scorer,
            real_features,
            sample_n: n,
            key: rng.next_u64(),
        }
    }

    /// Test-set classification accuracy of the underlying scorer (sanity
    /// check that the metric model is meaningful).
    pub fn scorer_accuracy(&mut self, data: &Dataset) -> f32 {
        self.scorer.accuracy_on(data)
    }

    /// Scores a generator with the evaluation noise of iteration 0: see
    /// [`evaluate_at`](Self::evaluate_at).
    pub fn evaluate(&mut self, gen: &mut Generator) -> GanScores {
        self.evaluate_at(gen, 0)
    }

    /// Scores a generator at iteration `iter`: samples `sample_n` images
    /// (that iteration's noise, uniform labels when conditional) and
    /// computes IS and FID. The same evaluator, generator and `iter` give
    /// the same scores.
    ///
    /// Generation runs in training mode so BatchNorm uses the large
    /// evaluation batch's statistics — early running statistics would
    /// otherwise dominate the scores.
    pub fn evaluate_at(&mut self, gen: &mut Generator, iter: usize) -> GanScores {
        let mut rng = Rng64::keyed(self.key, 0, iter as u64);
        let z = gen.sample_z(self.sample_n, &mut rng);
        let labels = gen.sample_labels(self.sample_n, &mut rng);
        let images = gen.generate(&z, &labels, true);
        let (fake_feats, fake_probs) = self.scorer.features_and_probs(&images);
        GanScores {
            inception_score: inception_score(&fake_probs, 1),
            fid: fid(&self.real_features, &fake_feats),
        }
    }

    /// One point of a run's score timeline: scores `gen` under an `eval`
    /// span, announces the result as `EvalDone` and appends it to
    /// `timeline` at `iter`.
    pub fn score_point(
        &mut self,
        gen: &mut Generator,
        iter: usize,
        telemetry: &Recorder,
        timeline: &mut ScoreTimeline,
    ) {
        let span = telemetry.span(Phase::Eval);
        let s = self.evaluate_at(gen, iter);
        drop(span);
        telemetry.event(Event::EvalDone {
            iter,
            is_score: s.inception_score,
            fid: s.fid,
        });
        timeline.push(iter, s);
    }

    /// Number of samples used per evaluation.
    pub fn sample_n(&self) -> usize {
        self.sample_n
    }
}

/// A labelled series of `(iteration, scores)` points — one curve of a
/// paper figure.
#[derive(Clone, Debug, Default)]
pub struct ScoreTimeline {
    points: Vec<(usize, GanScores)>,
}

impl ScoreTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point.
    pub fn push(&mut self, iter: usize, scores: GanScores) {
        self.points.push((iter, scores));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(usize, GanScores)] {
        &self.points
    }

    /// Whether any points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The last recorded scores.
    pub fn last(&self) -> Option<(usize, GanScores)> {
        self.points.last().copied()
    }

    /// Best (lowest) FID over the run.
    pub fn best_fid(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, s)| s.fid)
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Best (highest) IS over the run.
    pub fn best_is(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|(_, s)| s.inception_score)
            .max_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Mean scores over the last `n` points (smoothed "final" value, the
    /// analogue of reading the end of the paper's smoothed curves).
    pub fn final_scores(&self, n: usize) -> Option<GanScores> {
        if self.points.is_empty() {
            return None;
        }
        let tail = &self.points[self.points.len().saturating_sub(n.max(1))..];
        let count = tail.len() as f64;
        Some(GanScores {
            inception_score: tail.iter().map(|(_, s)| s.inception_score).sum::<f64>() / count,
            fid: tail.iter().map(|(_, s)| s.fid).sum::<f64>() / count,
        })
    }

    /// Renders the timeline as CSV rows: `label,iter,is,fid`.
    pub fn to_csv(&self, label: &str) -> String {
        let mut out = String::new();
        for (it, s) in &self.points {
            out.push_str(&format!(
                "{label},{it},{:.4},{:.4}\n",
                s.inception_score, s.fid
            ));
        }
        out
    }

    /// Renders the timeline as JSONL: one
    /// `{"label":…,"iter":…,"is":…,"fid":…}` object per point. Unlike
    /// [`ScoreTimeline::to_csv`], scores round-trip exactly (shortest
    /// float representation, not fixed precision).
    pub fn to_jsonl(&self, label: &str) -> String {
        let mut out = String::new();
        for (it, s) in &self.points {
            out.push_str(
                &md_telemetry::json::Object::new()
                    .field_str("label", label)
                    .field_u64("iter", *it as u64)
                    .field_f64("is", s.inception_score)
                    .field_f64("fid", s.fid)
                    .build(),
            );
            out.push('\n');
        }
        out
    }

    /// Parses a [`ScoreTimeline::to_jsonl`] document back into a timeline
    /// (labels are not retained — a timeline is a single curve). Lines
    /// missing any of the three numeric fields are skipped.
    pub fn from_jsonl(text: &str) -> ScoreTimeline {
        fn field(line: &str, key: &str) -> Option<f64> {
            let tag = format!("\"{key}\":");
            let start = line.find(&tag)? + tag.len();
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        }
        let mut t = ScoreTimeline::new();
        for line in text.lines() {
            if let (Some(it), Some(is_score), Some(fid)) =
                (field(line, "iter"), field(line, "is"), field(line, "fid"))
            {
                t.push(
                    it as usize,
                    GanScores {
                        inception_score: is_score,
                        fid,
                    },
                );
            }
        }
        t
    }

    /// Converts to the neutral points md-telemetry's `RunRecord` embeds.
    pub fn score_points(&self, label: &str) -> Vec<md_telemetry::ScorePoint> {
        self.points
            .iter()
            .map(|(it, s)| md_telemetry::ScorePoint {
                label: label.to_string(),
                iter: *it,
                is_score: s.inception_score,
                fid: s.fid,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchSpec;
    use md_data::synthetic::mnist_like;
    use md_metrics::classifier::ScorerConfig;

    fn quick_eval() -> (Evaluator, Dataset) {
        let data = mnist_like(12, 700, 3, 0.08);
        let (train, test) = data.split_test(200);
        let ev = Evaluator::with_scorer_config(
            &train,
            &test,
            128,
            1,
            ScorerConfig {
                steps: 250,
                ..ScorerConfig::default()
            },
        );
        (ev, test)
    }

    #[test]
    fn evaluator_scores_untrained_generator_poorly() {
        let (mut ev, test) = quick_eval();
        assert!(ev.scorer_accuracy(&test) > 0.6);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut g = spec.build_generator(&mut Rng64::seed_from_u64(2));
        let s = ev.evaluate(&mut g);
        // Untrained generator: FID far from zero, IS far below 10.
        assert!(s.fid > 1.0, "fid {}", s.fid);
        assert!(s.inception_score < 9.0, "is {}", s.inception_score);
        assert!(s.fid.is_finite() && s.inception_score.is_finite());
    }

    #[test]
    fn real_data_scores_beat_untrained_generator() {
        let (mut ev, test) = quick_eval();
        // Score the real test data "as if generated": near-zero FID.
        let (feats, probs) = {
            let idx: Vec<usize> = (0..128).collect();
            let (imgs, _) = test.batch(&idx);
            ev.scorer.features_and_probs(&imgs)
        };
        let real_fid = md_metrics::scores::fid(&ev.real_features, &feats);
        let real_is = md_metrics::scores::inception_score(&probs, 1);
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut g = spec.build_generator(&mut Rng64::seed_from_u64(4));
        let fake = ev.evaluate(&mut g);
        assert!(real_fid < fake.fid, "real {real_fid} vs fake {}", fake.fid);
        assert!(real_is > 2.0, "real IS {real_is}");
    }

    #[test]
    fn evaluation_noise_is_keyed_by_iteration() {
        let (mut ev, _) = quick_eval();
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let mut g = spec.build_generator(&mut Rng64::seed_from_u64(2));
        let a = ev.evaluate_at(&mut g, 7);
        let other = ev.evaluate_at(&mut g, 8);
        let b = ev.evaluate_at(&mut g, 7);
        assert_eq!(a.inception_score, b.inception_score);
        assert_eq!(a.fid, b.fid);
        assert_ne!(a.fid, other.fid, "neighbouring iterations share noise");
        assert_eq!(ev.evaluate(&mut g).fid, ev.evaluate_at(&mut g, 0).fid);
    }

    #[test]
    fn timeline_accessors() {
        let mut t = ScoreTimeline::new();
        assert!(t.is_empty());
        t.push(
            0,
            GanScores {
                inception_score: 1.0,
                fid: 50.0,
            },
        );
        t.push(
            100,
            GanScores {
                inception_score: 3.0,
                fid: 20.0,
            },
        );
        t.push(
            200,
            GanScores {
                inception_score: 2.5,
                fid: 25.0,
            },
        );
        assert_eq!(t.points().len(), 3);
        assert_eq!(t.best_fid(), Some(20.0));
        assert_eq!(t.best_is(), Some(3.0));
        let f = t.final_scores(2).unwrap();
        assert!((f.fid - 22.5).abs() < 1e-9);
        assert!((f.inception_score - 2.75).abs() < 1e-9);
        let csv = t.to_csv("test");
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("test,0,"));
    }

    #[test]
    fn jsonl_roundtrip_is_exact() {
        let mut t = ScoreTimeline::new();
        // Values chosen to break fixed-precision formats: CSV's %.4 would
        // lose the tail digits, JSONL must not.
        t.push(
            0,
            GanScores {
                inception_score: 1.000030517578125,
                fid: 50.062500001,
            },
        );
        t.push(
            1000,
            GanScores {
                inception_score: 2.5,
                fid: 1e-7,
            },
        );
        t.push(
            2000,
            GanScores {
                inception_score: 9.0,
                fid: 0.0,
            },
        );
        let text = t.to_jsonl("curve");
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with(r#"{"label":"curve","iter":0,"is":1.000030517578125"#));
        let back = ScoreTimeline::from_jsonl(&text);
        assert_eq!(back.points(), t.points());
    }

    #[test]
    fn from_jsonl_skips_malformed_lines() {
        let text = "not json\n{\"iter\":5,\"is\":2.0,\"fid\":3.0}\n{\"iter\":6}\n";
        let t = ScoreTimeline::from_jsonl(text);
        assert_eq!(
            t.points(),
            &[(
                5,
                GanScores {
                    inception_score: 2.0,
                    fid: 3.0
                }
            )]
        );
    }

    #[test]
    fn score_points_mirror_timeline() {
        let mut t = ScoreTimeline::new();
        t.push(
            10,
            GanScores {
                inception_score: 2.0,
                fid: 30.0,
            },
        );
        let pts = t.score_points("run");
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].label, "run");
        assert_eq!(pts[0].iter, 10);
        assert_eq!(pts[0].is_score, 2.0);
        assert_eq!(pts[0].fid, 30.0);
    }
}
