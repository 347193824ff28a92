//! Reusable experiment runners — one per figure of §V.
//!
//! The `md-bench` crate's `mdgan` subcommands are thin CLI wrappers around
//! these functions; integration tests run them at reduced scale. Every
//! runner is fully deterministic given its [`ExperimentScale::seed`], and
//! every curve it draws is trained and scored by the one supervised loop
//! ([`TrainSupervisor::run_scored`]), so a numeric divergence rolls back
//! or ends in a typed [`TrainError`], never in a scored NaN.

use crate::arch::{ArchKind, ArchSpec};
use crate::byzantine::Attack;
use crate::checkpoint::write_atomic;
use crate::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use crate::error::TrainError;
use crate::eval::{Evaluator, ScoreTimeline};
use crate::federation::{Federation, Mixing};
use crate::flgan::FlGan;
use crate::mdgan::trainer::MdGan;
use crate::standalone::StandaloneGan;
use crate::supervisor::{train_curve, Recoverable, SupervisorConfig, TrainSupervisor};
use md_data::synthetic::{DataSpec, Family};
use md_data::Dataset;
use md_metrics::scores::GanScores;
use md_nn::optim::AdamConfig;
use md_simnet::{CrashSchedule, TrafficReport};
use md_telemetry::Recorder;
use md_tensor::rng::Rng64;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Knobs that scale an experiment between "CI seconds" and "paper scale".
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Square image side.
    pub img: usize,
    /// Training-set size (before sharding).
    pub train_n: usize,
    /// Test-set size.
    pub test_n: usize,
    /// Total (generator) iterations `I`.
    pub iters: usize,
    /// Score every this many iterations.
    pub eval_every: usize,
    /// Generated/real sample size per evaluation (paper: 500).
    pub eval_samples: usize,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Seconds-scale configuration for tests.
    pub fn quick() -> Self {
        ExperimentScale {
            img: 12,
            train_n: 512,
            test_n: 128,
            iters: 30,
            eval_every: 15,
            eval_samples: 64,
            seed: 42,
        }
    }
}

/// One labelled curve of a figure.
pub struct CurveResult {
    /// Legend label, e.g. `"MD-GAN k=log(N)"`.
    pub label: String,
    /// The scored timeline.
    pub timeline: ScoreTimeline,
    /// Traffic moved during training (distributed competitors only).
    pub traffic: Option<TrafficReport>,
}

impl CurveResult {
    /// CSV rows `label,iter,is,fid`.
    pub fn to_csv(&self) -> String {
        self.timeline.to_csv(&self.label)
    }
}

fn make_dataset(family: Family, scale: &ExperimentScale) -> (Dataset, Dataset) {
    let spec = match family {
        Family::MnistLike => DataSpec::mnist(scale.img, scale.train_n + scale.test_n, scale.seed),
        Family::CifarLike => DataSpec::cifar(scale.img, scale.train_n + scale.test_n, scale.seed),
        Family::CelebaLike => DataSpec::celeba(scale.img, scale.train_n + scale.test_n, scale.seed),
    };
    spec.generate().split_test(scale.test_n)
}

fn arch_for(family: Family, kind: ArchKind, img: usize) -> ArchSpec {
    match (family, kind) {
        (Family::MnistLike, ArchKind::Mlp) => ArchSpec::mlp_mnist_scaled(img),
        (Family::MnistLike, ArchKind::Cnn) => ArchSpec::cnn_mnist_scaled(img),
        (Family::CifarLike, ArchKind::Mlp) => ArchSpec {
            channels: 3,
            ..ArchSpec::mlp_mnist_scaled(img)
        },
        (Family::CifarLike, ArchKind::Cnn) => ArchSpec::cnn_cifar_scaled(img),
        (Family::CelebaLike, _) => ArchSpec::cnn_celeba_scaled(img),
    }
}

/// Checks that a `family` panel on `kind` networks can be drawn and built at
/// `img`, by the rules the data generator and the builder assert.
pub fn check_img(family: Family, kind: ArchKind, img: usize) -> Result<(), TrainError> {
    family.check_img(img).map_err(TrainError::Config)?;
    arch_for(family, kind, img).check_img()
}

/// A figure competitor: a trainee the supervisor drives, plus the traffic
/// it moved (distributed competitors only).
trait Competitor: Recoverable {
    fn traffic(&self) -> Option<TrafficReport>;
}

impl Competitor for StandaloneGan {
    fn traffic(&self) -> Option<TrafficReport> {
        None
    }
}

impl<M: Mixing> Competitor for Federation<M> {
    fn traffic(&self) -> Option<TrafficReport> {
        Some(Federation::traffic(self))
    }
}

impl Competitor for MdGan {
    fn traffic(&self) -> Option<TrafficReport> {
        Some(MdGan::traffic(self))
    }
}

/// One curve of a figure's lineup: its label and how to build its
/// competitor. A competitor is built only when its curve is trained.
type Entry<'a> = (String, Box<dyn FnOnce() -> Box<dyn Competitor> + 'a>);

fn entry<'a, C: Competitor + 'static>(label: String, build: impl FnOnce() -> C + 'a) -> Entry<'a> {
    (
        label,
        Box::new(move || Box::new(build()) as Box<dyn Competitor>),
    )
}

/// A figure's shared set-up: the training split, the architecture, and the
/// evaluator that scores every curve on the same test sample.
fn setup(
    family: Family,
    kind: ArchKind,
    scale: &ExperimentScale,
) -> (Dataset, ArchSpec, Evaluator) {
    let (train, test) = make_dataset(family, scale);
    let spec = arch_for(family, kind, scale.img);
    let evaluator = Evaluator::new(&train, &test, scale.eval_samples, scale.seed);
    (train, spec, evaluator)
}

/// Trains and scores every curve of `lineup` in order.
///
/// With a recovery directory, curve `i` checkpoints to `curve_<i>.ckpt` under
/// `policy` and, once complete, is sealed as `curve_<i>.jsonl` (its exact
/// timeline) before the checkpoint is dropped. A rerun reloads sealed curves,
/// which carry `traffic: None` because byte accounting does not survive the
/// process, and resumes the first unsealed one from its checkpoint. A sealed
/// curve always wins over a checkpoint left beside it.
fn run_lineup(
    lineup: Vec<Entry<'_>>,
    scale: &ExperimentScale,
    evaluator: &mut Evaluator,
    telemetry: &Arc<Recorder>,
    recovery: Option<(&Path, &SupervisorConfig)>,
) -> Result<Vec<CurveResult>, TrainError> {
    let mut curves = Vec::with_capacity(lineup.len());
    for (i, (label, build)) in lineup.into_iter().enumerate() {
        let (cfg, sealed) = match recovery {
            Some((dir, policy)) => (
                SupervisorConfig {
                    ckpt_path: Some(dir.join(format!("curve_{i}.ckpt"))),
                    ..policy.clone()
                },
                Some(dir.join(format!("curve_{i}.jsonl"))),
            ),
            None => (SupervisorConfig::in_memory(), None),
        };
        if let Some(sealed) = sealed.as_ref().filter(|p| p.exists()) {
            let timeline = ScoreTimeline::from_jsonl(&std::fs::read_to_string(sealed)?);
            curves.push(CurveResult {
                label,
                timeline,
                traffic: None,
            });
            continue;
        }
        let mut gan = build();
        let (_, timeline) = TrainSupervisor::new(cfg.clone())
            .with_telemetry(Arc::clone(telemetry))
            .run_scored(&mut *gan, scale.iters as u64, evaluator, scale.eval_every)?;
        if let (Some(sealed), Some(ckpt)) = (sealed, cfg.ckpt_path) {
            write_atomic(&sealed, timeline.to_jsonl(&label).as_bytes())?;
            match std::fs::remove_file(ckpt) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
        curves.push(CurveResult {
            traffic: gan.traffic(),
            label,
            timeline,
        });
    }
    Ok(curves)
}

/// Configuration of the Figure 3 convergence comparison.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceConfig {
    /// Dataset family (MNIST-like or CIFAR-like in the paper's Figure 3).
    pub family: Family,
    /// MLP or CNN.
    pub arch: ArchKind,
    /// Scale knobs.
    pub scale: ExperimentScale,
    /// Number of workers `N` (paper: 10).
    pub workers: usize,
    /// The paper's small batch size (10).
    pub b_small: usize,
    /// The paper's large batch size (100).
    pub b_large: usize,
}

impl ConvergenceConfig {
    /// Paper-shaped defaults at the given scale.
    pub fn new(family: Family, arch: ArchKind, scale: ExperimentScale) -> Self {
        ConvergenceConfig {
            family,
            arch,
            scale,
            workers: 10,
            b_small: 10,
            b_large: 100,
        }
    }
}

/// Figure 3: standalone (b small/large), FL-GAN (b small/large) and
/// MD-GAN (k=1 / k=⌊log N⌋), all scored on the same test sample with the
/// same scorer, every competitor attached to `telemetry` so phase histograms
/// and per-worker tallies aggregate over the whole figure.
///
/// `recovery` names a directory and the supervision policy for a
/// crash-consistent run: curve `i` checkpoints to `curve_<i>.ckpt` and is
/// sealed as `curve_<i>.jsonl`, and a re-invocation after a crash (or
/// SIGKILL) reloads the sealed curves (without their traffic) and resumes
/// the first unsealed one, producing **bit-identical** timelines. Without
/// it every curve trains in memory.
pub fn run_convergence(
    cfg: ConvergenceConfig,
    telemetry: &Arc<Recorder>,
    recovery: Option<(&Path, &SupervisorConfig)>,
) -> Result<Vec<CurveResult>, TrainError> {
    if let Some((dir, _)) = recovery {
        std::fs::create_dir_all(dir)?;
    }
    let (train, spec, mut evaluator) = setup(cfg.family, cfg.arch, &cfg.scale);
    let (train, spec, seed, iters) = (&train, &spec, cfg.scale.seed, cfg.scale.iters);
    let mut lineup = Vec::new();

    // Standalone, both batch sizes.
    for b in [cfg.b_small, cfg.b_large] {
        lineup.push(entry(format!("standalone b={b}"), move || {
            let hyper = GanHyper {
                batch: b,
                ..GanHyper::default()
            };
            let mut rng = Rng64::seed_from_u64(seed ^ 0x57D);
            StandaloneGan::new(spec, train.clone(), hyper, &mut rng)
                .with_telemetry(Arc::clone(telemetry))
        }));
    }

    // FL-GAN, both batch sizes (E = 1, as in the paper).
    for b in [cfg.b_small, cfg.b_large] {
        lineup.push(entry(format!("FL-GAN b={b}"), move || {
            let mut rng = Rng64::seed_from_u64(seed ^ 0xF1);
            let shards = train.shard_iid(cfg.workers, &mut rng);
            let fl_cfg = FlGanConfig {
                workers: cfg.workers,
                epochs_per_round: 1.0,
                hyper: GanHyper {
                    batch: b,
                    ..GanHyper::default()
                },
                iterations: iters,
                seed: seed ^ 0xF1F1,
            };
            FlGan::new(spec, shards, fl_cfg).with_telemetry(Arc::clone(telemetry))
        }));
    }

    // MD-GAN, k = 1 and k = ⌊log N⌋ (b = b_small, as in the paper).
    for (k, klabel) in [(KPolicy::One, "k=1"), (KPolicy::LogN, "k=log(N)")] {
        lineup.push(entry(
            format!("MD-GAN {klabel} b={}", cfg.b_small),
            move || {
                let mut rng = Rng64::seed_from_u64(seed ^ 0x3D);
                let shards = train.shard_iid(cfg.workers, &mut rng);
                let md_cfg = MdGanConfig {
                    workers: cfg.workers,
                    k,
                    epochs_per_swap: 1.0,
                    swap: SwapPolicy::Derangement,
                    hyper: GanHyper {
                        batch: cfg.b_small,
                        ..GanHyper::default()
                    },
                    iterations: iters,
                    seed: seed ^ 0x3D3D,
                    crash: CrashSchedule::none(),
                    ..MdGanConfig::default()
                };
                MdGan::new(spec, shards, md_cfg).with_telemetry(Arc::clone(telemetry))
            },
        ));
    }
    run_lineup(lineup, &cfg.scale, &mut evaluator, telemetry, recovery)
}

/// Which quantity Figure 4 holds constant while `N` grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadMode {
    /// Per-worker batch size fixed (server load grows with N).
    ConstantWorker,
    /// Server load fixed: `b = base_b · base_n / N`.
    ConstantServer,
}

/// One point of the Figure 4 scalability study.
#[derive(Clone, Debug)]
pub struct ScalabilityPoint {
    /// Number of workers.
    pub n: usize,
    /// Swapping enabled?
    pub swap: bool,
    /// Which workload was held constant.
    pub mode: WorkloadMode,
    /// Effective batch size used.
    pub batch: usize,
    /// Smoothed final scores.
    pub final_scores: GanScores,
}

/// Figure 4: final MD-GAN scores as a function of `N`, with/without
/// swapping, under both workload regimes, every run attached to
/// `telemetry`. The dataset is fixed, so local shards shrink as `|B|/N`.
pub fn run_scalability(
    family: Family,
    scale: ExperimentScale,
    ns: &[usize],
    base_b: usize,
    telemetry: &Arc<Recorder>,
) -> Result<Vec<ScalabilityPoint>, TrainError> {
    let (train, spec, mut evaluator) = setup(family, ArchKind::Mlp, &scale);
    let base_n = ns.first().copied().unwrap_or(1).max(1);
    let mut out = Vec::new();
    for &n in ns {
        for mode in [WorkloadMode::ConstantWorker, WorkloadMode::ConstantServer] {
            for swap in [true, false] {
                let b = match mode {
                    WorkloadMode::ConstantWorker => base_b,
                    WorkloadMode::ConstantServer => (base_b * base_n / n).max(1),
                };
                let mut rng = Rng64::seed_from_u64(scale.seed ^ (n as u64) << 8);
                let shards = train.shard_iid(n, &mut rng);
                let cfg = MdGanConfig {
                    workers: n,
                    k: KPolicy::LogN,
                    epochs_per_swap: 1.0,
                    swap: if swap {
                        SwapPolicy::Derangement
                    } else {
                        SwapPolicy::Disabled
                    },
                    hyper: GanHyper {
                        batch: b,
                        ..GanHyper::default()
                    },
                    iterations: scale.iters,
                    seed: scale.seed ^ 0x4F1,
                    crash: CrashSchedule::none(),
                    ..MdGanConfig::default()
                };
                let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(telemetry));
                let timeline = train_curve(
                    &mut md,
                    scale.iters,
                    scale.eval_every,
                    &mut evaluator,
                    telemetry,
                )?;
                out.push(ScalabilityPoint {
                    n,
                    swap,
                    mode,
                    batch: b,
                    final_scores: timeline.final_scores(3).expect("timeline has points"),
                });
            }
        }
    }
    Ok(out)
}

/// Figure 5: MD-GAN under the crash pattern (one worker every `I/N`
/// iterations) vs the non-crashing run vs the standalone baselines, every
/// competitor attached to `telemetry`, whose fault tallies then mirror the
/// crash schedule.
pub fn run_faults(
    family: Family,
    arch: ArchKind,
    scale: ExperimentScale,
    workers: usize,
    telemetry: &Arc<Recorder>,
) -> Result<Vec<CurveResult>, TrainError> {
    let (train, spec, mut evaluator) = setup(family, arch, &scale);
    let (train, spec) = (&train, &spec);
    let mut lineup = Vec::new();
    for b in [10usize, 100] {
        lineup.push(entry(format!("standalone b={b}"), move || {
            let hyper = GanHyper {
                batch: b,
                ..GanHyper::default()
            };
            let mut rng = Rng64::seed_from_u64(scale.seed ^ 0x57D);
            StandaloneGan::new(spec, train.clone(), hyper, &mut rng)
                .with_telemetry(Arc::clone(telemetry))
        }));
    }
    for crash in [false, true] {
        let label = if crash {
            "MD-GAN with crashes"
        } else {
            "MD-GAN no crash"
        };
        lineup.push(entry(label.into(), move || {
            let mut rng = Rng64::seed_from_u64(scale.seed ^ 0xC4A5);
            let shards = train.shard_iid(workers, &mut rng);
            let schedule = if crash {
                CrashSchedule::every_quantile(scale.iters, workers, &mut rng)
            } else {
                CrashSchedule::none()
            };
            let cfg = MdGanConfig {
                workers,
                k: KPolicy::LogN,
                epochs_per_swap: 1.0,
                swap: SwapPolicy::Derangement,
                hyper: GanHyper {
                    batch: 10,
                    ..GanHyper::default()
                },
                iterations: scale.iters,
                seed: scale.seed ^ 0xC4,
                crash: schedule,
                ..MdGanConfig::default()
            };
            MdGan::new(spec, shards, cfg).with_telemetry(Arc::clone(telemetry))
        }));
    }
    run_lineup(lineup, &scale, &mut evaluator, telemetry, None)
}

/// One point of the lossy-network degradation sweep.
#[derive(Clone, Debug)]
pub struct LossyPoint {
    /// Per-attempt drop probability the run was subjected to.
    pub drop: f32,
    /// Smoothed final scores.
    pub final_scores: GanScores,
    /// Traffic moved (including dropped/duplicated/retried bytes).
    pub traffic: TrafficReport,
    /// Workers the failure detector suspected during this run.
    pub suspected: u64,
    /// Recorder-clock window `(start_ns, end_ns)` this point's run occupied.
    /// When the shared recorder captures traces for a whole sweep, filtering
    /// spans to this window isolates the point's own trace (trace ids are
    /// per-iteration and repeat across the sweep's runs).
    pub trace_window: (u64, u64),
}

impl LossyPoint {
    /// CSV row `drop,is,fid,bytes_sent,bytes_dropped,retries,suspected`.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{}\n",
            self.drop,
            self.final_scores.inception_score,
            self.final_scores.fid,
            self.traffic.bytes_sent(),
            self.traffic.dropped_bytes,
            self.traffic.retries,
            self.suspected
        )
    }

    /// CSV header matching [`to_csv_row`](Self::to_csv_row).
    pub fn csv_header() -> &'static str {
        "drop,is,fid,bytes_sent,bytes_dropped,retries,suspected\n"
    }
}

/// Figure 5 extension: MD-GAN on the robust (oracle-free) runtime under a
/// seeded lossy network, one run per drop rate, each with one mid-run
/// worker crash. Returns the degradation curve (final scores vs drop rate).
/// Every run is attached to `telemetry`, which then accumulates
/// drop/duplicate/retry/suspect counters across the whole sweep.
#[allow(clippy::too_many_arguments)]
pub fn run_lossy_faults(
    family: Family,
    arch: ArchKind,
    scale: ExperimentScale,
    workers: usize,
    drops: &[f32],
    fault_seed: u64,
    telemetry: &Arc<Recorder>,
) -> Result<Vec<LossyPoint>, TrainError> {
    use md_simnet::FaultPlan;
    let (train, spec, mut evaluator) = setup(family, arch, &scale);
    let mut out = Vec::new();
    for &drop in drops {
        let mut rng = Rng64::seed_from_u64(scale.seed ^ 0x10551);
        let shards = train.shard_iid(workers, &mut rng);
        let mut cfg = MdGanConfig {
            workers,
            k: KPolicy::LogN,
            epochs_per_swap: 1.0,
            swap: SwapPolicy::Derangement,
            hyper: GanHyper {
                batch: 10,
                ..GanHyper::default()
            },
            iterations: scale.iters,
            seed: scale.seed ^ 0x105,
            // One mid-run crash the robust server must *notice* (silent
            // fail-stop, no oracle).
            crash: CrashSchedule::new(vec![((scale.iters / 2).max(1), 1)]),
            fault: FaultPlan::lossy(fault_seed, drop),
            ..MdGanConfig::default()
        };
        cfg.robust.enabled = true;
        let suspected_before = telemetry.counter(md_telemetry::Counter::WorkersSuspected);
        let window_start = telemetry.elapsed_ns();
        let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(telemetry));
        let timeline = train_curve(
            &mut md,
            scale.iters,
            scale.eval_every,
            &mut evaluator,
            telemetry,
        )?;
        out.push(LossyPoint {
            drop,
            final_scores: timeline.final_scores(3).expect("timeline has points"),
            traffic: md.traffic(),
            suspected: telemetry.counter(md_telemetry::Counter::WorkersSuspected)
                - suspected_before,
            trace_window: (window_start, telemetry.elapsed_ns()),
        });
    }
    Ok(out)
}

/// One point of the elastic-membership degradation sweep.
#[derive(Clone, Debug)]
pub struct ElasticPoint {
    /// Initial cluster size `N` the run started with.
    pub workers: usize,
    /// Per-iteration per-kind churn probability the plan was seeded with.
    pub churn_rate: f64,
    /// Join events the plan fired.
    pub joins: usize,
    /// Graceful-leave events the plan fired.
    pub leaves: usize,
    /// Crash events the plan fired.
    pub crashes: usize,
    /// Workers alive when the run ended.
    pub final_alive: usize,
    /// Smoothed final scores.
    pub final_scores: GanScores,
    /// Traffic moved (bootstrap transfers included).
    pub traffic: TrafficReport,
}

impl ElasticPoint {
    /// CSV row
    /// `workers,churn_rate,joins,leaves,crashes,final_alive,is,fid,bytes_sent`.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}\n",
            self.workers,
            self.churn_rate,
            self.joins,
            self.leaves,
            self.crashes,
            self.final_alive,
            self.final_scores.inception_score,
            self.final_scores.fid,
            self.traffic.bytes_sent(),
        )
    }

    /// CSV header matching [`to_csv_row`](Self::to_csv_row).
    pub fn csv_header() -> &'static str {
        "workers,churn_rate,joins,leaves,crashes,final_alive,is,fid,bytes_sent\n"
    }
}

/// Elastic-membership sweep: MD-GAN (sequential runtime, oracle mode)
/// under seeded churn, one run per (cluster size × churn rate) cell. Each
/// run draws its own [`ChurnPlan`](md_simnet::ChurnPlan) from `churn_seed`
/// with equal join/leave/crash rates; the returned degradation grid shows
/// final scores against how much of the cluster turned over. Every run is
/// attached to `telemetry`, which then accumulates
/// join/leave/eviction/bootstrap counters across the whole sweep.
#[allow(clippy::too_many_arguments)]
pub fn run_elastic(
    family: Family,
    arch: ArchKind,
    scale: ExperimentScale,
    workers: &[usize],
    churn_rates: &[f64],
    churn_seed: u64,
    telemetry: &Arc<Recorder>,
) -> Result<Vec<ElasticPoint>, TrainError> {
    use md_simnet::{ChurnKind, ChurnPlan};
    let (train, spec, mut evaluator) = setup(family, arch, &scale);
    let mut out = Vec::new();
    for &n in workers {
        for &rate in churn_rates {
            let churn = ChurnPlan::seeded(churn_seed, n, scale.iters, rate, rate, rate);
            let (joins, leaves, crashes) = (
                churn.joins(),
                churn.count(ChurnKind::Leave),
                churn.count(ChurnKind::Crash),
            );
            let total = churn.max_workers(n);
            let mut rng = Rng64::seed_from_u64(scale.seed ^ 0xE1A57);
            let shards = train.shard_iid(total, &mut rng);
            let cfg = MdGanConfig {
                workers: n,
                k: KPolicy::LogN,
                epochs_per_swap: 1.0,
                swap: SwapPolicy::Derangement,
                hyper: GanHyper {
                    batch: 10,
                    ..GanHyper::default()
                },
                iterations: scale.iters,
                seed: scale.seed ^ 0xE1A,
                churn,
                ..MdGanConfig::default()
            };
            let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(telemetry));
            let timeline = train_curve(
                &mut md,
                scale.iters,
                scale.eval_every,
                &mut evaluator,
                telemetry,
            )?;
            out.push(ElasticPoint {
                workers: n,
                churn_rate: rate,
                joins,
                leaves,
                crashes,
                final_alive: md.membership().alive_count(),
                final_scores: timeline.final_scores(3).expect("timeline has points"),
                traffic: md.traffic(),
            });
        }
    }
    Ok(out)
}

/// Figure 6: the CelebA-like validation. Standalone and FL-GAN use
/// `b_large` with the paper's baseline Adam settings; MD-GAN uses
/// `b_large / 5` with its own settings (the paper's 200 vs 40), over
/// `N ∈ {1, 5}`. Every competitor is attached to `telemetry`.
pub fn run_celeba(
    scale: ExperimentScale,
    b_large: usize,
    telemetry: &Arc<Recorder>,
) -> Result<Vec<CurveResult>, TrainError> {
    let (train, spec, mut evaluator) = setup(Family::CelebaLike, ArchKind::Cnn, &scale);
    let (train, spec) = (&train, &spec);
    let b_md = (b_large / 5).max(1);

    // CelebA GANs are unconditional in the paper.
    let base_hyper = GanHyper {
        batch: b_large,
        aux_weight: 0.0,
        adam_g: AdamConfig::baseline_celeba_generator(),
        adam_d: AdamConfig::baseline_celeba_discriminator(),
        ..GanHyper::default()
    };

    let mut lineup = vec![entry(format!("standalone b={b_large}"), move || {
        let mut rng = Rng64::seed_from_u64(scale.seed ^ 0x6A);
        StandaloneGan::new(spec, train.clone(), base_hyper, &mut rng)
            .with_telemetry(Arc::clone(telemetry))
    })];
    for n in [1usize, 5] {
        lineup.push(entry(format!("FL-GAN N={n} b={b_large}"), move || {
            let mut rng = Rng64::seed_from_u64(scale.seed ^ 0x6B ^ (n as u64));
            let shards = train.shard_iid(n, &mut rng);
            let fl_cfg = FlGanConfig {
                workers: n,
                epochs_per_round: 1.0,
                hyper: base_hyper,
                iterations: scale.iters,
                seed: scale.seed ^ 0x6B0 ^ (n as u64),
            };
            FlGan::new(spec, shards, fl_cfg).with_telemetry(Arc::clone(telemetry))
        }));
    }
    for n in [1usize, 5] {
        lineup.push(entry(format!("MD-GAN N={n} b={b_md}"), move || {
            let mut rng = Rng64::seed_from_u64(scale.seed ^ 0x6C ^ (n as u64));
            let shards = train.shard_iid(n, &mut rng);
            let md_hyper = GanHyper {
                batch: b_md,
                aux_weight: 0.0,
                adam_g: AdamConfig::mdgan_celeba_generator(),
                adam_d: AdamConfig::mdgan_celeba_discriminator(),
                ..GanHyper::default()
            };
            let cfg = MdGanConfig {
                workers: n,
                k: KPolicy::LogN,
                epochs_per_swap: 1.0,
                swap: SwapPolicy::Derangement,
                hyper: md_hyper,
                iterations: scale.iters,
                seed: scale.seed ^ 0x6C0 ^ (n as u64),
                crash: CrashSchedule::none(),
                ..MdGanConfig::default()
            };
            MdGan::new(spec, shards, cfg).with_telemetry(Arc::clone(telemetry))
        }));
    }
    run_lineup(lineup, &scale, &mut evaluator, telemetry, None)
}

/// One cell of the free-rider degradation/defense grid.
#[derive(Clone, Debug)]
pub struct FreeriderPoint {
    /// Cluster size `N` the run started with.
    pub workers: usize,
    /// Attack strategy name (`noise`, `echo`, or `mimic`).
    pub strategy: String,
    /// Fraction of workers running the attack (first `round(frac·N)` slots).
    pub frac: f32,
    /// Whether the server-side feedback-forensics defense was enabled.
    pub defended: bool,
    /// Workers the forensics flagged during this run (counter delta).
    pub flagged: u64,
    /// Free-riders permanently evicted during this run (counter delta).
    pub evicted: u64,
    /// Workers alive when the run ended.
    pub final_alive: usize,
    /// Smoothed final scores.
    pub final_scores: GanScores,
}

impl FreeriderPoint {
    /// CSV row
    /// `workers,strategy,frac,defended,flagged,evicted,final_alive,is,fid`.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{}\n",
            self.workers,
            self.strategy,
            self.frac,
            self.defended,
            self.flagged,
            self.evicted,
            self.final_alive,
            self.final_scores.inception_score,
            self.final_scores.fid,
        )
    }

    /// CSV header matching [`to_csv_row`](Self::to_csv_row).
    pub fn csv_header() -> &'static str {
        "workers,strategy,frac,defended,flagged,evicted,final_alive,is,fid\n"
    }
}

/// Maps a sweep strategy name to its [`Attack`]. An unknown name is a
/// [`TrainError::Config`], so a typo fails loudly instead of silently
/// running an honest baseline.
pub fn freerider_attack(strategy: &str) -> Result<Attack, TrainError> {
    match strategy {
        "noise" => Ok(Attack::PureNoise { std: 5.0 }),
        "echo" => Ok(Attack::DelayedEcho),
        "mimic" => Ok(Attack::PretrainedMimic),
        other => Err(TrainError::Config(format!(
            "unknown free-rider strategy {other:?} (want noise|echo|mimic)"
        ))),
    }
}

/// Free-rider sweep: MD-GAN under data-free workers, one run per
/// (strategy × fraction × defense on/off) cell. The first `round(frac·N)`
/// slots run the attack; defended cells route feedbacks through the
/// forensics so flagged free-riders graduate into membership eviction,
/// undefended cells take the attack at face value. Every run is attached to
/// `telemetry`, which then accumulates flag/clear/eviction counters across
/// the whole sweep. Strategy names are checked before any set-up.
#[allow(clippy::too_many_arguments)]
pub fn run_freerider(
    family: Family,
    arch: ArchKind,
    scale: ExperimentScale,
    workers: usize,
    fracs: &[f32],
    strategies: &[&str],
    telemetry: &Arc<Recorder>,
) -> Result<Vec<FreeriderPoint>, TrainError> {
    use md_telemetry::Counter;
    let attacks = strategies
        .iter()
        .map(|s| freerider_attack(s))
        .collect::<Result<Vec<_>, _>>()?;
    let (train, spec, mut evaluator) = setup(family, arch, &scale);
    let mut out = Vec::new();
    for (&strategy, attack) in strategies.iter().zip(attacks) {
        for &frac in fracs {
            // Round (not ceil): the forensics' population medians break
            // down at 50% contamination, and ceil would turn "30% of 4"
            // into half the cluster.
            let n_attackers = ((frac * workers as f32).round() as usize).min(workers);
            for defended in [false, true] {
                let mut rng = Rng64::seed_from_u64(scale.seed ^ 0xF12E);
                let shards = train.shard_iid(workers, &mut rng);
                let mut cfg = MdGanConfig {
                    workers,
                    // One shared noise batch per iteration so the forensics'
                    // peer-cosine signal sees a single comparable group.
                    k: KPolicy::One,
                    epochs_per_swap: 1.0,
                    swap: SwapPolicy::Disabled,
                    hyper: GanHyper {
                        batch: 10,
                        ..GanHyper::default()
                    },
                    iterations: scale.iters,
                    seed: scale.seed ^ 0xF12,
                    attacks: vec![attack; n_attackers],
                    ..MdGanConfig::default()
                };
                cfg.defense.enabled = defended;
                cfg.robust.suspect_after = 2;
                cfg.robust.evict_after = 2;
                cfg.robust.probe_period = 1;
                let flagged_before = telemetry.counter(Counter::WorkersFlagged);
                let evicted_before = telemetry.counter(Counter::FreeridersEvicted);
                let mut md = MdGan::new(&spec, shards, cfg).with_telemetry(Arc::clone(telemetry));
                let timeline = train_curve(
                    &mut md,
                    scale.iters,
                    scale.eval_every,
                    &mut evaluator,
                    telemetry,
                )?;
                out.push(FreeriderPoint {
                    workers,
                    strategy: strategy.to_string(),
                    frac,
                    defended,
                    flagged: telemetry.counter(Counter::WorkersFlagged) - flagged_before,
                    evicted: telemetry.counter(Counter::FreeridersEvicted) - evicted_before,
                    final_alive: md.membership().alive_count(),
                    final_scores: timeline.final_scores(3).expect("timeline has points"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use std::path::PathBuf;

    #[test]
    fn check_img_applies_the_data_and_architecture_rules() {
        use Family::*;
        for (family, kind, img) in [
            (MnistLike, ArchKind::Mlp, 8),
            (CifarLike, ArchKind::Cnn, 16),
        ] {
            assert!(check_img(family, kind, img).is_ok());
        }
        for (family, kind, img, why) in [
            (MnistLike, ArchKind::Mlp, 4, "mnist_like needs img >= 8"),
            (CelebaLike, ArchKind::Mlp, 8, "celeba_like needs img >= 16"),
            (CifarLike, ArchKind::Cnn, 20, "img = 4 * 2^s"),
            (CelebaLike, ArchKind::Cnn, 24, "img = 4 * 2^s"),
        ] {
            let err = check_img(family, kind, img).unwrap_err().to_string();
            assert!(err.contains(why), "{family:?}/{kind:?} at {img}: {err}");
        }
    }

    #[test]
    fn convergence_produces_six_curves() {
        let cfg = ConvergenceConfig {
            workers: 4,
            b_small: 4,
            b_large: 8,
            ..ConvergenceConfig::new(Family::MnistLike, ArchKind::Mlp, ExperimentScale::quick())
        };
        let curves = run_convergence(cfg, &Arc::new(Recorder::disabled()), None).unwrap();
        assert_eq!(curves.len(), 6);
        for c in &curves {
            assert!(!c.timeline.is_empty(), "{} has no points", c.label);
            let (_, s) = c.timeline.last().unwrap();
            assert!(
                s.fid.is_finite() && s.inception_score.is_finite(),
                "{}",
                c.label
            );
        }
        assert!(curves.iter().any(|c| c.label.contains("MD-GAN k=1")));
        assert!(curves.iter().any(|c| c.label.contains("FL-GAN")));
        // Distributed curves carry traffic reports.
        assert!(curves.iter().filter(|c| c.traffic.is_some()).count() == 4);
    }

    fn tiny_convergence() -> ConvergenceConfig {
        let mut scale = ExperimentScale::quick();
        scale.iters = 6;
        scale.eval_every = 3;
        scale.train_n = 256;
        scale.test_n = 64;
        scale.eval_samples = 32;
        ConvergenceConfig {
            workers: 3,
            b_small: 4,
            b_large: 8,
            ..ConvergenceConfig::new(Family::MnistLike, ArchKind::Mlp, scale)
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mdgan-exp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn csvs(curves: &[CurveResult]) -> Vec<String> {
        curves.iter().map(|c| c.to_csv()).collect()
    }

    fn every(n: u64) -> SupervisorConfig {
        SupervisorConfig {
            ckpt_every: n,
            ..SupervisorConfig::default()
        }
    }

    /// A small split, its MLP and an evaluator, for single-curve tests.
    fn small_setup(iters: usize, eval_every: usize) -> (Dataset, ArchSpec, Evaluator) {
        let scale = ExperimentScale {
            iters,
            eval_every,
            train_n: 256,
            test_n: 64,
            eval_samples: 32,
            ..ExperimentScale::quick()
        };
        setup(Family::MnistLike, ArchKind::Mlp, &scale)
    }

    #[test]
    fn resumable_convergence_matches_the_in_memory_run() {
        let cfg = tiny_convergence();
        let plain = run_convergence(cfg, &Arc::new(Recorder::disabled()), None).unwrap();

        let dir = fresh_dir("plain-vs-resumable");
        let tel = Arc::new(Recorder::enabled());
        let resumable = run_convergence(cfg, &tel, Some((&dir, &every(2)))).unwrap();

        assert_eq!(csvs(&plain), csvs(&resumable));
        assert!(tel.counter(md_telemetry::Counter::CheckpointsWritten) > 0);
        assert_eq!(tel.counter(md_telemetry::Counter::ResumeCount), 0);
        // All six curves sealed, no checkpoint left behind.
        for i in 0..6 {
            assert!(dir.join(format!("curve_{i}.jsonl")).exists());
            assert!(!dir.join(format!("curve_{i}.ckpt")).exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumable_convergence_resumes_between_curves_bit_identically() {
        let cfg = tiny_convergence();
        let dir = fresh_dir("between-curves");
        let tel = Arc::new(Recorder::disabled());
        let reference = run_convergence(cfg, &tel, Some((&dir, &every(2)))).unwrap();

        // Simulate a crash after curve 2 completed: later curves vanish,
        // the rerun must retrain 3..5 with the same evaluation noise. A
        // stale checkpoint beside a sealed curve loses to the seal.
        for i in 3..6 {
            std::fs::remove_file(dir.join(format!("curve_{i}.jsonl"))).unwrap();
        }
        std::fs::write(dir.join("curve_1.ckpt"), b"stale").unwrap();
        let resumed = run_convergence(cfg, &tel, Some((&dir, &every(2)))).unwrap();
        assert_eq!(csvs(&reference), csvs(&resumed));
        // Reloaded completed curves drop their traffic reports.
        assert!(resumed[2].traffic.is_none());
        assert!(
            resumed[4].traffic.is_some(),
            "retrained curve keeps traffic"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scored_curve_resumes_mid_curve_bit_identically() {
        let (train, spec, _) = small_setup(10, 5);
        let make_gan = || {
            let hyper = GanHyper {
                batch: 4,
                ..GanHyper::default()
            };
            let mut rng = Rng64::seed_from_u64(42 ^ 0x57D);
            StandaloneGan::new(&spec, train.clone(), hyper, &mut rng)
        };
        let tel = Arc::new(Recorder::enabled());
        let run = |gan: &mut StandaloneGan, path: &Path, target: u64| {
            let (_, _, mut ev) = small_setup(10, 5);
            TrainSupervisor::new(SupervisorConfig {
                ckpt_path: Some(path.to_path_buf()),
                ..every(3)
            })
            .with_telemetry(Arc::clone(&tel))
            .run_scored(gan, target, &mut ev, 5)
            .unwrap()
        };

        // Uninterrupted reference: 10 iterations in one process.
        let full_dir = fresh_dir("curve-full");
        let mut full_gan = make_gan();
        let (_, full_tl) = run(&mut full_gan, &full_dir.join("c.ckpt"), 10);

        // "Killed" run: stops after iteration 7; the last durable
        // checkpoint is at iteration 6, so the resume replays 7..10.
        let dir = fresh_dir("curve-killed");
        let path = dir.join("c.ckpt");
        run(&mut make_gan(), &path, 7);
        assert_eq!(Checkpoint::load(&path).unwrap().iteration, 6);

        let mut gan2 = make_gan();
        let (report, resumed_tl) = run(&mut gan2, &path, 10);
        assert_eq!(report.resumed_from, Some(6));
        assert_eq!(full_tl.to_jsonl("s"), resumed_tl.to_jsonl("s"));
        assert_eq!(full_gan.params(), gan2.params());
        assert!(tel.counter(md_telemetry::Counter::ResumeCount) >= 1);
        let _ = std::fs::remove_dir_all(&full_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scored_curve_rolls_back_then_exhausts_retries() {
        let (train, spec, mut ev) = small_setup(6, 3);
        // A loss threshold of 0 makes every step count as exploded.
        let policy = SupervisorConfig {
            health: md_nn::HealthConfig {
                max_abs_loss: 0.0,
                ..md_nn::HealthConfig::default()
            },
            max_rollbacks: 2,
            lr_drop: 0.5,
            ..every(2)
        };
        let tel = Arc::new(Recorder::enabled());
        let mut rng = Rng64::seed_from_u64(42);
        let hyper = GanHyper {
            batch: 4,
            ..GanHyper::default()
        };
        let mut gan = StandaloneGan::new(&spec, train.clone(), hyper, &mut rng);
        let err = TrainSupervisor::new(policy)
            .with_telemetry(Arc::clone(&tel))
            .run_scored(&mut gan, 6, &mut ev, 3)
            .unwrap_err();
        assert!(matches!(
            err,
            TrainError::RetriesExhausted { attempts: 2, .. }
        ));
        assert_eq!(tel.counter(md_telemetry::Counter::NanDetected), 3);
        assert_eq!(tel.counter(md_telemetry::Counter::Rollbacks), 2);
    }

    /// FL-GAN reports no losses, so only a parameter scan sees a poisoned
    /// worker, and the amortized scan runs every 16 steps. Poisoned one step
    /// before the checkpoint at 5, the curve must roll back instead of
    /// persisting the NaN, then replay into the uninterrupted curve.
    #[test]
    fn scored_curve_never_persists_a_poisoned_state() {
        use crate::checkpoint::{Checkpoint, SectionData};
        use md_nn::gan::Generator;
        use std::cell::Cell;

        struct PoisonOnce {
            fl: FlGan,
            at: Option<u64>,
            non_finite_captures: Cell<usize>,
        }
        fn finite(ck: &Checkpoint) -> bool {
            ck.section_names()
                .all(|name| match ck.get_section(name).unwrap() {
                    SectionData::F32(d) => d.iter().all(|x| x.is_finite()),
                    SectionData::Bytes(b) if name.starts_with("worker_") => {
                        finite(&Checkpoint::from_bytes(b).unwrap())
                    }
                    _ => true,
                })
        }
        impl Recoverable for PoisonOnce {
            fn iteration(&self) -> u64 {
                self.fl.iteration()
            }
            fn capture(&self) -> Checkpoint {
                let ck = self.fl.capture();
                if !finite(&ck) {
                    self.non_finite_captures
                        .set(self.non_finite_captures.get() + 1);
                }
                ck
            }
            fn restore(&mut self, ck: &Checkpoint) -> Result<(), TrainError> {
                Recoverable::restore(&mut self.fl, ck)
            }
            fn step_once(&mut self) -> Vec<f32> {
                if self.at == Some(self.iteration()) {
                    self.at = None;
                    self.fl.poison();
                }
                self.fl.step_once()
            }
            fn health_nets(&self) -> Vec<&md_nn::layers::Sequential> {
                self.fl.health_nets()
            }
            fn scale_lr(&mut self, factor: f32) {
                self.fl.scale_lr(factor);
            }
            fn scored_generator(&mut self) -> &mut Generator {
                self.fl.scored_generator()
            }
        }

        let (train, spec, _) = small_setup(10, 5);
        let tel = Arc::new(Recorder::enabled());
        let run = |poison_at: Option<u64>, tag: &str| {
            let shards = train.shard_iid(2, &mut Rng64::seed_from_u64(3));
            let cfg = FlGanConfig {
                workers: 2,
                epochs_per_round: 1.0,
                hyper: GanHyper {
                    batch: 4,
                    ..GanHyper::default()
                },
                iterations: 10,
                seed: 7,
            };
            let mut gan = PoisonOnce {
                fl: FlGan::new(&spec, shards, cfg),
                at: poison_at,
                non_finite_captures: Cell::new(0),
            };
            let dir = fresh_dir(tag);
            let (_, _, mut ev) = small_setup(10, 5);
            let (_, tl) = TrainSupervisor::new(SupervisorConfig {
                ckpt_path: Some(dir.join("fl.ckpt")),
                ..every(5)
            })
            .with_telemetry(Arc::clone(&tel))
            .run_scored(&mut gan, 10, &mut ev, 5)
            .unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(gan.non_finite_captures.get(), 0, "{tag}: NaN persisted");
            tl.to_jsonl("fl")
        };
        let clean = run(None, "poison-clean");
        let poisoned = run(Some(4), "poison-once");
        assert_eq!(tel.counter(md_telemetry::Counter::Rollbacks), 1);
        assert_eq!(clean, poisoned);
    }

    /// MD-GAN reports no losses either. A generator poisoned just before an
    /// evaluation step that is not a checkpoint step must be caught by the
    /// scan before scoring (the scorer's eigensolver panics on NaN), rolled
    /// back, and replayed into the clean curve.
    #[test]
    fn poisoned_generator_is_never_scored() {
        let (train, spec, _) = small_setup(8, 3);
        let run = |inject: Option<u64>| {
            let shards = train.shard_iid(3, &mut Rng64::seed_from_u64(5));
            let cfg = MdGanConfig {
                workers: 3,
                hyper: GanHyper {
                    batch: 4,
                    ..GanHyper::default()
                },
                iterations: 8,
                ..MdGanConfig::default()
            };
            let mut md = MdGan::new(&spec, shards, cfg);
            let (_, _, mut ev) = small_setup(8, 3);
            let tel = Arc::new(Recorder::enabled());
            let mut sup = TrainSupervisor::new(every(4)).with_telemetry(Arc::clone(&tel));
            // Poisoned before stepping iteration 2 → 3: scored at 3, the
            // checkpoints are at 4 and 8.
            sup.inject_nan_at = inject;
            let (report, tl) = sup.run_scored(&mut md, 8, &mut ev, 3).unwrap();
            (report.rollbacks, tl.to_jsonl("md"), md.gen_params())
        };
        let (clean_rollbacks, clean_tl, clean_gen) = run(None);
        let (rollbacks, tl, gen) = run(Some(2));
        assert_eq!((clean_rollbacks, rollbacks), (0, 1));
        assert_eq!(tl, clean_tl);
        assert_eq!(gen, clean_gen);
    }

    #[test]
    fn scalability_covers_modes_and_swap() {
        let mut scale = ExperimentScale::quick();
        scale.iters = 10;
        scale.eval_every = 5;
        let tel = Arc::new(Recorder::disabled());
        let points = run_scalability(Family::MnistLike, scale, &[2, 4], 4, &tel).unwrap();
        assert_eq!(points.len(), 8); // 2 n × 2 modes × 2 swap
                                     // Constant-server mode shrinks b as N grows.
        let cs4 = points
            .iter()
            .find(|p| p.n == 4 && p.mode == WorkloadMode::ConstantServer)
            .unwrap();
        assert_eq!(cs4.batch, 2);
        let cw4 = points
            .iter()
            .find(|p| p.n == 4 && p.mode == WorkloadMode::ConstantWorker)
            .unwrap();
        assert_eq!(cw4.batch, 4);
    }

    #[test]
    fn faults_runner_crashes_everyone() {
        let mut scale = ExperimentScale::quick();
        // 13 iterations with 3 workers puts the crash quantiles at 4, 8 and
        // 12 — all strictly inside the run, so every crash is observed.
        scale.iters = 13;
        scale.eval_every = 6;
        let rec = Arc::new(Recorder::enabled());
        let curves = run_faults(Family::MnistLike, ArchKind::Mlp, scale, 3, &rec).unwrap();
        assert_eq!(curves.len(), 4);
        let crash_curve = curves.iter().find(|c| c.label.contains("crashes")).unwrap();
        assert!(!crash_curve.timeline.is_empty());
        // The shared recorder saw every competitor: the crash run killed all
        // 3 workers, the two MD-GAN runs each did 13 generator iterations
        // and the standalone baselines trained locally.
        assert_eq!(rec.counter(md_telemetry::Counter::Faults), 3);
        assert!(rec.phase_stats(md_telemetry::Phase::GenForward).count >= 13);
        assert!(rec.phase_stats(md_telemetry::Phase::LocalTrain).count >= 24);
        assert!(rec.phase_stats(md_telemetry::Phase::Eval).count > 0);
    }

    #[test]
    fn lossy_sweep_produces_degradation_curve() {
        let mut scale = ExperimentScale::quick();
        scale.iters = 8;
        scale.eval_every = 4;
        let rec = Arc::new(Recorder::enabled());
        let points = run_lossy_faults(
            Family::MnistLike,
            ArchKind::Mlp,
            scale,
            3,
            &[0.0, 0.3],
            7,
            &rec,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.final_scores.fid.is_finite(), "drop {}", p.drop);
            assert_eq!(
                p.traffic.bytes_sent(),
                p.traffic.bytes_delivered() + p.traffic.dropped_bytes,
                "conservation at drop {}",
                p.drop
            );
            // The silent mid-run crash was detected by missed feedbacks.
            assert!(p.suspected >= 1, "drop {}", p.drop);
            assert!(p.to_csv_row().split(',').count() == 7);
        }
        assert_eq!(points[0].traffic.dropped_bytes, 0, "perfect network");
        assert!(points[1].traffic.dropped_bytes > 0, "30% drop run");
        assert!(rec.counter(md_telemetry::Counter::MsgsDropped) > 0);
        assert!(rec.counter(md_telemetry::Counter::Retries) > 0);
    }

    #[test]
    fn elastic_sweep_produces_degradation_grid() {
        let mut scale = ExperimentScale::quick();
        scale.iters = 10;
        scale.eval_every = 5;
        let rec = Arc::new(Recorder::enabled());
        let points = run_elastic(
            Family::MnistLike,
            ArchKind::Mlp,
            scale,
            &[3, 4],
            &[0.0, 0.25],
            7,
            &rec,
        )
        .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(
                p.final_scores.fid.is_finite(),
                "cell ({}, {})",
                p.workers,
                p.churn_rate
            );
            assert_eq!(p.to_csv_row().split(',').count(), 9);
            if p.churn_rate == 0.0 {
                assert_eq!((p.joins, p.leaves, p.crashes), (0, 0, 0));
                assert_eq!(p.final_alive, p.workers);
            } else {
                assert_eq!(p.final_alive, p.workers + p.joins - p.leaves - p.crashes);
            }
        }
        // The 25%-per-kind cells actually churned and telemetry saw it.
        assert!(points.iter().any(|p| p.joins > 0));
        assert_eq!(
            rec.counter(md_telemetry::Counter::WorkersJoined),
            points.iter().map(|p| p.joins as u64).sum::<u64>()
        );
        assert_eq!(
            rec.counter(md_telemetry::Counter::Bootstraps),
            rec.counter(md_telemetry::Counter::WorkersJoined),
            "every joiner found an alive bootstrap source"
        );
    }

    #[test]
    fn freerider_sweep_defends_and_exports_counters() {
        let mut scale = ExperimentScale::quick();
        scale.iters = 20;
        scale.eval_every = 10;
        let rec = Arc::new(Recorder::enabled());
        let points = run_freerider(
            Family::MnistLike,
            ArchKind::Mlp,
            scale,
            4,
            &[0.25],
            &["noise"],
            &rec,
        )
        .unwrap();
        assert_eq!(points.len(), 2, "defended off/on for one cell");
        let undefended = &points[0];
        let defended = &points[1];
        assert!(!undefended.defended && defended.defended);
        assert_eq!(undefended.evicted, 0, "no forensics, no eviction");
        assert_eq!(undefended.final_alive, 4);
        assert_eq!(defended.evicted, 1, "the lone free-rider was evicted");
        assert!(defended.flagged >= 1);
        assert_eq!(defended.final_alive, 3);
        for p in &points {
            assert!(p.final_scores.fid.is_finite());
            assert_eq!(p.to_csv_row().split(',').count(), 9);
        }
        assert_eq!(
            rec.counter(md_telemetry::Counter::FreeridersEvicted),
            points.iter().map(|p| p.evicted).sum::<u64>()
        );
    }

    #[test]
    fn freerider_attack_rejects_typos() {
        let err = freerider_attack("nois").unwrap_err();
        assert!(err.to_string().contains("unknown free-rider strategy"));
        let tel = Arc::new(Recorder::disabled());
        let scale = ExperimentScale::quick();
        let run = run_freerider(
            Family::MnistLike,
            ArchKind::Mlp,
            scale,
            4,
            &[0.25],
            &["nois"],
            &tel,
        );
        assert!(matches!(run, Err(TrainError::Config(_))));
    }
}
