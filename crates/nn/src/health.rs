//! Numeric training-health monitoring: cheap NaN/Inf/explosion detection
//! on losses and parameters.
//!
//! The [`HealthMonitor`] is the detection half of the recovery subsystem
//! (the rollback half lives in `mdgan-core`'s supervisor). Every probe is
//! a single fused pass ([`Tensor::finite_max_abs`]-style), and the whole
//! monitor collapses to two float compares per step when only losses are
//! checked — cheap enough to leave on by default.
//!
//! [`Tensor::finite_max_abs`]: md_tensor::Tensor::finite_max_abs

use crate::layers::Sequential;

/// Thresholds for divergence detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthConfig {
    /// A loss with absolute value above this counts as exploded.
    pub max_abs_loss: f32,
    /// A parameter with absolute value above this counts as exploded.
    pub max_abs_param: f32,
    /// Probe parameter tensors every this many steps (loss checks are free
    /// and run every step; parameter scans touch every weight, so they are
    /// amortized). `0` disables parameter scans.
    pub check_params_every: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            max_abs_loss: 1e4,
            max_abs_param: 1e6,
            check_params_every: 16,
        }
    }
}

/// What a health probe concluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HealthVerdict {
    /// Everything finite and under threshold.
    Healthy,
    /// A loss came back NaN or ±Inf.
    NonFiniteLoss,
    /// A parameter is NaN or ±Inf.
    NonFiniteParams,
    /// Finite but above the configured explosion threshold.
    Exploded {
        /// The offending magnitude.
        value: f32,
    },
}

impl HealthVerdict {
    /// True iff the probe found a problem.
    pub fn is_diverged(&self) -> bool {
        *self != HealthVerdict::Healthy
    }

    /// Short stable label for telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::NonFiniteLoss => "non_finite_loss",
            HealthVerdict::NonFiniteParams => "non_finite_params",
            HealthVerdict::Exploded { .. } => "exploded",
        }
    }
}

/// Stateful health monitor: feed it the losses of every step (and the
/// networks to scan periodically) and it reports the first divergence.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    steps: u64,
    diverged: u64,
}

impl HealthMonitor {
    /// Creates a monitor with the given thresholds.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            steps: 0,
            diverged: 0,
        }
    }

    /// The thresholds in use.
    pub fn config(&self) -> HealthConfig {
        self.cfg
    }

    /// Divergences observed so far.
    pub fn divergences(&self) -> u64 {
        self.diverged
    }

    /// Checks the step's losses, and — every `check_params_every` steps —
    /// scans the given networks' parameters. Returns the first problem
    /// found (losses are checked first: they are free and usually blow up
    /// a step or two before the weights do).
    pub fn check_step(&mut self, losses: &[f32], nets: &[&Sequential]) -> HealthVerdict {
        self.steps += 1;
        let v = self.probe(losses, nets);
        if v.is_diverged() {
            self.diverged += 1;
        }
        v
    }

    fn probe(&self, losses: &[f32], nets: &[&Sequential]) -> HealthVerdict {
        for &l in losses {
            if !l.is_finite() {
                return HealthVerdict::NonFiniteLoss;
            }
            if l.abs() > self.cfg.max_abs_loss {
                return HealthVerdict::Exploded { value: l };
            }
        }
        let due = self.cfg.check_params_every > 0
            && self
                .steps
                .is_multiple_of(self.cfg.check_params_every as u64);
        if due {
            for net in nets {
                match net.params_finite_max_abs() {
                    None => return HealthVerdict::NonFiniteParams,
                    Some(mx) if mx > self.cfg.max_abs_param => {
                        return HealthVerdict::Exploded { value: mx }
                    }
                    Some(_) => {}
                }
            }
        }
        HealthVerdict::Healthy
    }

    /// Forces a parameter scan right now regardless of the amortization
    /// schedule — used right before writing a checkpoint so a poisoned
    /// state is never recorded as "good".
    pub fn check_now(&mut self, losses: &[f32], nets: &[&Sequential]) -> HealthVerdict {
        let mut forced = HealthMonitor {
            cfg: HealthConfig {
                check_params_every: 1,
                ..self.cfg
            },
            steps: 0,
            diverged: 0,
        };
        let v = forced.check_step(losses, nets);
        if v.is_diverged() {
            self.diverged += 1;
        }
        v
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        HealthMonitor::new(HealthConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::layer::Layer;
    use crate::layers::Dense;
    use md_tensor::rng::Rng64;

    fn net() -> Sequential {
        let mut rng = Rng64::seed_from_u64(1);
        Sequential::new().push(Dense::new(2, 2, Init::XavierUniform, &mut rng))
    }

    #[test]
    fn healthy_steps_stay_healthy() {
        let n = net();
        let mut hm = HealthMonitor::default();
        for _ in 0..100 {
            assert_eq!(hm.check_step(&[0.7, 1.2], &[&n]), HealthVerdict::Healthy);
        }
        assert_eq!(hm.divergences(), 0);
    }

    #[test]
    fn non_finite_loss_detected_immediately() {
        let n = net();
        let mut hm = HealthMonitor::default();
        let v = hm.check_step(&[0.5, f32::NAN], &[&n]);
        assert_eq!(v, HealthVerdict::NonFiniteLoss);
        assert!(v.is_diverged());
        assert_eq!(hm.divergences(), 1);
    }

    #[test]
    fn exploded_loss_detected() {
        let mut hm = HealthMonitor::new(HealthConfig {
            max_abs_loss: 10.0,
            ..HealthConfig::default()
        });
        match hm.check_step(&[-50.0], &[]) {
            HealthVerdict::Exploded { value } => assert_eq!(value, -50.0),
            v => panic!("expected explosion, got {v:?}"),
        }
    }

    #[test]
    fn param_scan_is_amortized_but_forcible() {
        let mut n = net();
        n.params_mut()[0].data_mut()[0] = f32::NAN;
        let mut hm = HealthMonitor::new(HealthConfig {
            check_params_every: 8,
            ..HealthConfig::default()
        });
        // Steps 1..7 skip the scan; step 8 catches it.
        for step in 1..8 {
            assert_eq!(
                hm.check_step(&[0.1], &[&n]),
                HealthVerdict::Healthy,
                "step {step} scanned early"
            );
        }
        assert_eq!(hm.check_step(&[0.1], &[&n]), HealthVerdict::NonFiniteParams);
        // check_now scans regardless of schedule.
        let mut hm2 = HealthMonitor::new(HealthConfig {
            check_params_every: 1_000_000,
            ..HealthConfig::default()
        });
        assert_eq!(hm2.check_now(&[0.1], &[&n]), HealthVerdict::NonFiniteParams);
        // check_params_every = 0 disables scans entirely.
        let mut hm3 = HealthMonitor::new(HealthConfig {
            check_params_every: 0,
            ..HealthConfig::default()
        });
        for _ in 0..32 {
            assert_eq!(hm3.check_step(&[0.1], &[&n]), HealthVerdict::Healthy);
        }
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(HealthVerdict::Healthy.as_str(), "healthy");
        assert_eq!(HealthVerdict::NonFiniteLoss.as_str(), "non_finite_loss");
        assert_eq!(HealthVerdict::NonFiniteParams.as_str(), "non_finite_params");
        assert_eq!(HealthVerdict::Exploded { value: 1.0 }.as_str(), "exploded");
    }
}
