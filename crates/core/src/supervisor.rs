//! Training-health supervision: run → detect → rollback/resume.
//!
//! The [`TrainSupervisor`] wraps any [`Recoverable`] runtime and drives it
//! to a target iteration while watching for divergence. Its loop is the one
//! code path that steps a competitor: [`TrainSupervisor::run_scored`] (and
//! [`train_curve`], its in-memory form) also scores the generator, which is
//! how every curve of Figures 3-6 is made. Its contract:
//!
//! * **Crash consistency** — checkpoints are written with
//!   [`Checkpoint::save_atomic`] (temp file + fsync + rename), so a SIGKILL
//!   at any instant leaves either the previous checkpoint or the new one on
//!   disk, never a torn file.
//! * **Resume** — if the configured checkpoint path already exists when
//!   [`TrainSupervisor::run`] starts, training resumes from it and the
//!   remainder of the run is bit-identical to an uninterrupted run (the
//!   optimizer moments and the step counters that key every random draw
//!   are part of the state).
//! * **Rollback** — when the [`HealthMonitor`] flags a NaN/Inf or an
//!   exploded magnitude, the supervisor restores the last *good* state
//!   (health-verified at capture time via
//!   [`HealthMonitor::check_now`]), optionally drops the learning rate,
//!   records the event, and retries — up to
//!   [`SupervisorConfig::max_rollbacks`] times.
//! * **Scoring** — a scored run evaluates the generator at its first
//!   iteration (unless it resumed), every `eval_every` iterations and at the
//!   target, always after a forced parameter scan of that very state: a
//!   non-finite generator rolls back instead of reaching the scorer. The
//!   checkpoints of a scored run carry the partial [`ScoreTimeline`], so a
//!   resumed curve continues it bit-identically.
//!
//! See DESIGN.md §10 for the recovery model.

use std::path::PathBuf;
use std::sync::Arc;

use md_nn::gan::Generator;
use md_nn::layers::Sequential;
use md_nn::{HealthConfig, HealthMonitor};
use md_telemetry::{Event, Recorder};

use crate::checkpoint::Checkpoint;
use crate::error::{ckerr, TrainError};
use crate::eval::{Evaluator, ScoreTimeline};

/// Checkpoint section holding a scored run's partial timeline (JSONL, exact
/// round trip). The runtimes' restore paths ignore it.
const SEC_TIMELINE: &str = "score_timeline";

/// A training runtime the supervisor can drive, snapshot, roll back and
/// score.
///
/// Implemented by [`MdGan`](crate::mdgan::trainer::MdGan),
/// [`StandaloneGan`](crate::standalone::StandaloneGan) and
/// [`Federation`](crate::federation::Federation) (FL-GAN and gossip GAN).
pub trait Recoverable {
    /// Iterations completed so far.
    fn iteration(&self) -> u64;

    /// Full training state as a checkpoint (parameters, optimizer moments,
    /// counters).
    fn capture(&self) -> Checkpoint;

    /// Restores a previously captured state.
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError>;

    /// Runs exactly one global iteration and returns the step's losses
    /// (empty when the runtime does not expose them — the health monitor
    /// then relies on parameter scans alone).
    fn step_once(&mut self) -> Vec<f32>;

    /// Networks whose parameters the health monitor should scan.
    fn health_nets(&self) -> Vec<&Sequential>;

    /// Scales every learning rate by `factor` (the post-rollback LR drop).
    fn scale_lr(&mut self, factor: f32);

    /// The generator a score timeline measures.
    fn scored_generator(&mut self) -> &mut Generator;

    /// Test hook: corrupts the live state with a NaN so the detection →
    /// rollback path can be exercised. The corruption must live *outside*
    /// the checkpointed state's causal past, i.e. replaying from the last
    /// checkpoint without poisoning must stay healthy. Default: no-op.
    fn poison(&mut self) {}
}

/// Supervisor policy knobs.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Where to persist checkpoints (`None` keeps them in memory only —
    /// rollback still works, resume across processes does not).
    pub ckpt_path: Option<PathBuf>,
    /// Write a checkpoint every this many iterations (`0` disables
    /// periodic checkpointing; the initial state is still captured so
    /// rollback always has a target).
    pub ckpt_every: u64,
    /// Rollbacks allowed before giving up with
    /// [`TrainError::RetriesExhausted`].
    pub max_rollbacks: u32,
    /// Learning-rate factor applied on every rollback (`1.0` keeps the LR;
    /// the classic divergence remedy is `0.5`).
    pub lr_drop: f32,
    /// Divergence thresholds for the health monitor.
    pub health: HealthConfig,
}

impl SupervisorConfig {
    /// Nothing persisted and no periodic capture: rollback returns to the
    /// run's start state. What [`train_curve`] runs under.
    pub fn in_memory() -> Self {
        SupervisorConfig {
            ckpt_every: 0,
            ..SupervisorConfig::default()
        }
    }
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            ckpt_path: None,
            ckpt_every: 50,
            max_rollbacks: 3,
            lr_drop: 1.0,
            health: HealthConfig::default(),
        }
    }
}

/// What a supervised run did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorReport {
    /// Steps taken, replays included: a run with one rollback counts the
    /// replayed stretch twice.
    pub steps_taken: u64,
    /// Rollbacks performed.
    pub rollbacks: u32,
    /// Iteration the run resumed from, when an on-disk checkpoint was
    /// found at start.
    pub resumed_from: Option<u64>,
    /// Checkpoints durably written (or captured, when `ckpt_path` is
    /// `None`). The always-taken initial capture is not counted.
    pub checkpoints_written: u64,
}

/// Drives a [`Recoverable`] runtime with health checks, periodic atomic
/// checkpoints and bounded rollback-on-divergence.
pub struct TrainSupervisor {
    cfg: SupervisorConfig,
    telemetry: Arc<Recorder>,
    /// Test hook: poison the trainee just before stepping this iteration
    /// (one-shot — cleared once fired, so the post-rollback replay of the
    /// same iteration stays healthy).
    pub inject_nan_at: Option<u64>,
}

impl TrainSupervisor {
    /// Creates a supervisor with the given policy and no telemetry.
    pub fn new(cfg: SupervisorConfig) -> Self {
        TrainSupervisor {
            cfg,
            telemetry: Arc::new(Recorder::disabled()),
            inject_nan_at: None,
        }
    }

    /// Attaches a telemetry recorder (`nan_detected`, `rollbacks`,
    /// `checkpoints_written`, `resume_count` counters + span events).
    pub fn with_telemetry(mut self, recorder: Arc<Recorder>) -> Self {
        self.telemetry = recorder;
        self
    }

    /// The policy in effect.
    pub fn config(&self) -> &SupervisorConfig {
        &self.cfg
    }

    /// Runs `trainee` until it has completed `target_iters` iterations,
    /// resuming from the configured checkpoint path when one exists,
    /// rolling back on divergence, and checkpointing periodically.
    pub fn run(
        &mut self,
        trainee: &mut dyn Recoverable,
        target_iters: u64,
    ) -> Result<SupervisorReport, TrainError> {
        self.drive(trainee, target_iters, None)
            .map(|(report, _)| report)
    }

    /// As [`run`](Self::run), scoring [`Recoverable::scored_generator`] with
    /// `evaluator` at the first iteration (unless the run resumed), every
    /// `eval_every` iterations and at `target_iters`. Each checkpoint
    /// carries the timeline so far, so a resumed or rolled-back run
    /// continues it.
    pub fn run_scored(
        &mut self,
        trainee: &mut dyn Recoverable,
        target_iters: u64,
        evaluator: &mut Evaluator,
        eval_every: usize,
    ) -> Result<(SupervisorReport, ScoreTimeline), TrainError> {
        self.drive(trainee, target_iters, Some((evaluator, eval_every)))
    }

    /// The one loop behind [`run`](Self::run) and
    /// [`run_scored`](Self::run_scored).
    fn drive(
        &mut self,
        trainee: &mut dyn Recoverable,
        target_iters: u64,
        mut scoring: Option<(&mut Evaluator, usize)>,
    ) -> Result<(SupervisorReport, ScoreTimeline), TrainError> {
        let mut report = SupervisorReport::default();
        let mut timeline = ScoreTimeline::new();
        let scored = scoring.is_some();

        // Resume when a checkpoint is already on disk.
        if let Some(path) = &self.cfg.ckpt_path {
            if path.exists() {
                let ck = Checkpoint::load(path)?;
                restore(trainee, scored.then_some(&mut timeline), &ck)?;
                report.resumed_from = Some(trainee.iteration());
                self.telemetry.event(Event::Resumed {
                    iter: trainee.iteration() as usize,
                });
            }
        }
        if let (Some((evaluator, _)), None) = (scoring.as_mut(), report.resumed_from) {
            let at = trainee.iteration() as usize;
            evaluator.score_point(
                trainee.scored_generator(),
                at,
                &self.telemetry,
                &mut timeline,
            );
        }

        let mut monitor = HealthMonitor::new(self.cfg.health);
        // Rollback always has a target: the (verified-good) start state.
        let mut last_good = capture(trainee, scored.then_some(&timeline));

        while trainee.iteration() < target_iters {
            let iter = trainee.iteration();
            if self.inject_nan_at == Some(iter) {
                self.inject_nan_at = None;
                trainee.poison();
            }

            let losses = trainee.step_once();
            report.steps_taken += 1;
            let iter = trainee.iteration();
            let persist = self.cfg.ckpt_every > 0 && iter.is_multiple_of(self.cfg.ckpt_every);
            let score = scoring.as_ref().is_some_and(|&(_, every)| {
                iter.is_multiple_of(every.max(1) as u64) || iter == target_iters
            });
            let mut verdict = monitor.check_step(&losses, &trainee.health_nets());
            if (persist || score) && !verdict.is_diverged() {
                // Force a parameter scan: a poisoned state is neither scored
                // nor recorded as "good".
                verdict = monitor.check_now(&losses, &trainee.health_nets());
            }
            if verdict.is_diverged() {
                let reason = verdict.as_str();
                self.telemetry.event(Event::NanDetected {
                    iter: iter as usize,
                    verdict: reason,
                });
                if report.rollbacks >= self.cfg.max_rollbacks {
                    return Err(TrainError::RetriesExhausted {
                        attempts: report.rollbacks,
                        last: reason.to_string(),
                    });
                }
                restore(trainee, scored.then_some(&mut timeline), &last_good)?;
                if self.cfg.lr_drop != 1.0 {
                    trainee.scale_lr(self.cfg.lr_drop);
                }
                report.rollbacks += 1;
                self.telemetry.event(Event::Rollback {
                    iter: iter as usize,
                    to_iter: trainee.iteration() as usize,
                });
                continue;
            }

            if let (Some((evaluator, _)), true) = (scoring.as_mut(), score) {
                let gen = trainee.scored_generator();
                evaluator.score_point(gen, iter as usize, &self.telemetry, &mut timeline);
            }
            if persist {
                let ck = capture(trainee, scored.then_some(&timeline));
                if let Some(path) = &self.cfg.ckpt_path {
                    ck.save_atomic(path)?;
                }
                self.telemetry.event(Event::CheckpointWritten {
                    iter: iter as usize,
                    bytes: ck.byte_size() as u64,
                });
                report.checkpoints_written += 1;
                last_good = ck;
            }
        }
        Ok((report, timeline))
    }
}

/// The trainee's state, plus the timeline so far when the run is scored.
fn capture(trainee: &dyn Recoverable, timeline: Option<&ScoreTimeline>) -> Checkpoint {
    let mut ck = trainee.capture();
    if let Some(t) = timeline {
        ck.push_bytes(SEC_TIMELINE, t.to_jsonl("").into_bytes());
    }
    ck
}

/// Restores the trainee from `ck`, and `timeline` too when given.
fn restore(
    trainee: &mut dyn Recoverable,
    timeline: Option<&mut ScoreTimeline>,
    ck: &Checkpoint,
) -> Result<(), TrainError> {
    trainee.restore(ck)?;
    if let Some(timeline) = timeline {
        let text = ck.require_bytes(SEC_TIMELINE).map_err(ckerr)?;
        let text = std::str::from_utf8(text)
            .map_err(|e| TrainError::Checkpoint(format!("{SEC_TIMELINE} is not UTF-8: {e}")))?;
        *timeline = ScoreTimeline::from_jsonl(text);
    }
    Ok(())
}

/// Trains `trainee` to `iters` iterations and scores it every `eval_every`:
/// one curve of a figure. Rollback targets stay in memory (only the start
/// state, as nothing is checkpointed), so a divergence replays the curve
/// from its start and a persistent one ends in
/// [`TrainError::RetriesExhausted`].
pub fn train_curve(
    trainee: &mut dyn Recoverable,
    iters: usize,
    eval_every: usize,
    evaluator: &mut Evaluator,
    telemetry: &Arc<Recorder>,
) -> Result<ScoreTimeline, TrainError> {
    TrainSupervisor::new(SupervisorConfig::in_memory())
        .with_telemetry(Arc::clone(telemetry))
        .run_scored(trainee, iters as u64, evaluator, eval_every)
        .map(|(_, timeline)| timeline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_nn::init::Init;
    use md_nn::layer::Layer;
    use md_nn::layers::Dense;
    use md_tensor::rng::Rng64;

    /// A tiny deterministic "trainer": one Dense layer whose single
    /// tracked scalar is bumped by a draw keyed by the iteration each step.
    /// Captures params into a real Checkpoint, so restore semantics mirror
    /// the real runtimes.
    struct Toy {
        gen: Generator,
        key: u64,
        iter: u64,
        lr: f32,
        poisoned: bool,
    }

    impl Toy {
        fn new() -> Self {
            let mut rng = Rng64::seed_from_u64(9);
            Toy {
                gen: Generator::new(
                    Sequential::new().push(Dense::new(2, 2, Init::XavierUniform, &mut rng)),
                    2,
                    0,
                ),
                key: rng.next_u64(),
                iter: 0,
                lr: 1.0,
                poisoned: false,
            }
        }
    }

    impl Recoverable for Toy {
        fn iteration(&self) -> u64 {
            self.iter
        }
        fn capture(&self) -> Checkpoint {
            let mut ck = Checkpoint::new(self.iter);
            ck.push("params", self.gen.net.get_params_flat());
            ck
        }
        fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
            let params = ck.require("params")?;
            self.gen.net.set_params_flat(params);
            self.iter = ck.iteration;
            self.poisoned = false;
            Ok(())
        }
        fn step_once(&mut self) -> Vec<f32> {
            if self.poisoned {
                self.gen.net.params_mut()[0].data_mut()[0] = f32::NAN;
            }
            let bump = Rng64::keyed(self.key, 0, self.iter).uniform() * 0.01;
            self.gen.net.params_mut()[0].data_mut()[0] += bump;
            self.iter += 1;
            let loss = if self.poisoned { f32::NAN } else { 0.5 };
            vec![loss]
        }
        fn health_nets(&self) -> Vec<&Sequential> {
            vec![&self.gen.net]
        }
        fn scale_lr(&mut self, factor: f32) {
            self.lr *= factor;
        }
        fn scored_generator(&mut self) -> &mut Generator {
            &mut self.gen
        }
        fn poison(&mut self) {
            self.poisoned = true;
        }
    }

    fn final_params(toy: &Toy) -> Vec<f32> {
        toy.gen.net.get_params_flat()
    }

    #[test]
    fn healthy_run_reaches_target() {
        let mut toy = Toy::new();
        let mut sup = TrainSupervisor::new(SupervisorConfig {
            ckpt_every: 4,
            ..SupervisorConfig::default()
        });
        let report = sup.run(&mut toy, 10).unwrap();
        assert_eq!(toy.iteration(), 10);
        assert_eq!(report.steps_taken, 10);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.checkpoints_written, 2); // iters 4 and 8
        assert_eq!(report.resumed_from, None);
    }

    #[test]
    fn injected_nan_rolls_back_and_completes_bit_identically() {
        // Reference: clean run.
        let mut clean = Toy::new();
        TrainSupervisor::new(SupervisorConfig {
            ckpt_every: 2,
            ..SupervisorConfig::default()
        })
        .run(&mut clean, 8)
        .unwrap();

        // Faulty run: NaN injected at iteration 5.
        let telemetry = Arc::new(Recorder::enabled());
        let mut toy = Toy::new();
        let mut sup = TrainSupervisor::new(SupervisorConfig {
            ckpt_every: 2,
            ..SupervisorConfig::default()
        })
        .with_telemetry(Arc::clone(&telemetry));
        sup.inject_nan_at = Some(5);
        let report = sup.run(&mut toy, 8).unwrap();

        assert_eq!(report.rollbacks, 1);
        assert_eq!(toy.iteration(), 8);
        // Rolled back to iter 4's checkpoint and replayed 5..8 without the
        // poison: the end state must match the clean run exactly.
        assert_eq!(final_params(&toy), final_params(&clean));
        use md_telemetry::Counter;
        assert_eq!(telemetry.counter(Counter::NanDetected), 1);
        assert_eq!(telemetry.counter(Counter::Rollbacks), 1);
        assert!(telemetry.counter(Counter::CheckpointsWritten) >= 3);
    }

    #[test]
    fn retries_are_bounded() {
        struct AlwaysNan(Toy);
        impl Recoverable for AlwaysNan {
            fn iteration(&self) -> u64 {
                self.0.iteration()
            }
            fn capture(&self) -> Checkpoint {
                self.0.capture()
            }
            fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
                self.0.restore(ck)
            }
            fn step_once(&mut self) -> Vec<f32> {
                self.0.step_once();
                vec![f32::NAN]
            }
            fn health_nets(&self) -> Vec<&Sequential> {
                self.0.health_nets()
            }
            fn scale_lr(&mut self, factor: f32) {
                self.0.scale_lr(factor)
            }
            fn scored_generator(&mut self) -> &mut Generator {
                self.0.scored_generator()
            }
        }
        let mut t = AlwaysNan(Toy::new());
        let mut sup = TrainSupervisor::new(SupervisorConfig {
            max_rollbacks: 2,
            ..SupervisorConfig::default()
        });
        match sup.run(&mut t, 10) {
            Err(TrainError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn lr_drop_applies_on_rollback() {
        let mut toy = Toy::new();
        let mut sup = TrainSupervisor::new(SupervisorConfig {
            ckpt_every: 2,
            lr_drop: 0.5,
            ..SupervisorConfig::default()
        });
        sup.inject_nan_at = Some(3);
        sup.run(&mut toy, 6).unwrap();
        assert_eq!(toy.lr, 0.5);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!(
            "mdgan_sup_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.ckpt");
        let _ = std::fs::remove_file(&path);

        // Uninterrupted reference.
        let mut clean = Toy::new();
        TrainSupervisor::new(SupervisorConfig::default())
            .run(&mut clean, 9)
            .unwrap();

        // Phase 1: run to 5 with checkpointing every 5 — simulates a crash
        // right after the iteration-5 checkpoint.
        let cfg = SupervisorConfig {
            ckpt_path: Some(path.clone()),
            ckpt_every: 5,
            ..SupervisorConfig::default()
        };
        let mut t1 = Toy::new();
        TrainSupervisor::new(cfg.clone()).run(&mut t1, 5).unwrap();
        assert!(path.exists());

        // Phase 2: a *fresh* process resumes from disk and finishes.
        let mut t2 = Toy::new();
        let report = TrainSupervisor::new(cfg).run(&mut t2, 9).unwrap();
        assert_eq!(report.resumed_from, Some(5));
        assert_eq!(report.steps_taken, 4);
        assert_eq!(final_params(&t2), final_params(&clean));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
