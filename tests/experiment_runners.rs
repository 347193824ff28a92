//! The figure runners of `mdgan_core::experiments` must produce complete,
//! deterministic output at test scale.

use mdgan_repro::core::arch::ArchKind;
use mdgan_repro::core::experiments::{
    run_celeba, run_convergence, run_faults, run_scalability, ConvergenceConfig, ExperimentScale,
    WorkloadMode,
};
use mdgan_repro::data::synthetic::Family;
use mdgan_repro::telemetry::Recorder;
use std::sync::Arc;

fn off() -> Arc<Recorder> {
    Arc::new(Recorder::disabled())
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        img: 12,
        train_n: 256,
        test_n: 64,
        iters: 16,
        eval_every: 8,
        eval_samples: 48,
        seed: 77,
    }
}

#[test]
fn convergence_runner_is_deterministic() {
    let cfg = ConvergenceConfig {
        workers: 3,
        b_small: 4,
        b_large: 8,
        ..ConvergenceConfig::new(Family::MnistLike, ArchKind::Mlp, tiny_scale())
    };
    let a = run_convergence(cfg, &off(), None).unwrap();
    let b = run_convergence(cfg, &off(), None).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.label, y.label);
        assert_eq!(
            x.to_csv(),
            y.to_csv(),
            "curve {} not deterministic",
            x.label
        );
    }
}

#[test]
fn convergence_runner_cifar_cnn_panel() {
    let mut scale = tiny_scale();
    scale.img = 8; // smallest valid CNN size
    scale.iters = 6;
    scale.eval_every = 3;
    let cfg = ConvergenceConfig {
        workers: 2,
        b_small: 4,
        b_large: 6,
        ..ConvergenceConfig::new(Family::CifarLike, ArchKind::Cnn, scale)
    };
    let curves = run_convergence(cfg, &off(), None).unwrap();
    assert_eq!(curves.len(), 6);
    for c in &curves {
        let (_, s) = c.timeline.last().unwrap();
        assert!(s.fid.is_finite(), "{}: FID not finite", c.label);
    }
}

#[test]
fn scalability_runner_shapes() {
    let points = run_scalability(Family::MnistLike, tiny_scale(), &[2, 4], 4, &off()).unwrap();
    assert_eq!(points.len(), 8);
    for p in &points {
        assert!(p.final_scores.fid.is_finite());
        match p.mode {
            WorkloadMode::ConstantWorker => assert_eq!(p.batch, 4),
            WorkloadMode::ConstantServer => assert_eq!(p.batch, 4 * 2 / p.n),
        }
    }
}

#[test]
fn faults_runner_produces_four_curves() {
    let curves = run_faults(Family::MnistLike, ArchKind::Mlp, tiny_scale(), 3, &off()).unwrap();
    let labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
    assert!(labels.contains(&"MD-GAN with crashes"));
    assert!(labels.contains(&"MD-GAN no crash"));
    assert_eq!(curves.len(), 4);
}

#[test]
fn celeba_runner_covers_all_competitors() {
    let mut scale = tiny_scale();
    scale.img = 16; // celeba generator needs >= 16
    scale.iters = 4;
    scale.eval_every = 2;
    let curves = run_celeba(scale, 10, &off()).unwrap();
    // standalone + FL-GAN {1,5} + MD-GAN {1,5}
    assert_eq!(curves.len(), 5);
    assert!(curves.iter().any(|c| c.label.starts_with("standalone")));
    assert!(
        curves
            .iter()
            .filter(|c| c.label.starts_with("FL-GAN"))
            .count()
            == 2
    );
    assert!(
        curves
            .iter()
            .filter(|c| c.label.starts_with("MD-GAN"))
            .count()
            == 2
    );
}
