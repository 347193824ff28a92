//! Free-rider acceptance: data-free workers fabricating plausible
//! feedbacks (pure noise, delayed echo, pre-trained-D mimicry) must be
//! flagged by the server-side feedback forensics and permanently evicted
//! through the failure-detector → membership path, on both lock-step
//! runtimes bit-identically, and the defended run's final FID must not be
//! worse than the undefended one under a 30% free-rider fraction.

use mdgan_repro::core::byzantine::Attack;
use mdgan_repro::core::config::{GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_repro::core::experiments::{run_freerider, ExperimentScale};
use mdgan_repro::core::mdgan::threaded::run_threaded;
use mdgan_repro::core::{ArchSpec, MdGan};
use mdgan_repro::data::synthetic::{mnist_like, Family};
use mdgan_repro::data::Dataset;
use mdgan_repro::simnet::MemberStatus;
use mdgan_repro::telemetry::{Counter, Event, Recorder};
use mdgan_repro::tensor::rng::Rng64;
use std::sync::Arc;

const WORKERS: usize = 4;
const ITERS: usize = 200;

/// Master seed; override with `FREERIDER_SEED=<n>` so CI can sweep several
/// attack streams without recompiling (the matrix runs 7, 21 and 1337).
fn freerider_seed() -> u64 {
    std::env::var("FREERIDER_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn shards() -> Vec<Dataset> {
    let data = mnist_like(12, 512, 11, 0.08);
    let mut rng = Rng64::seed_from_u64(11);
    data.shard_iid(WORKERS, &mut rng)
}

fn cfg(attacks: Vec<Attack>, defended: bool) -> MdGanConfig {
    let mut c = MdGanConfig {
        workers: WORKERS,
        // One shared noise batch per iteration: the forensics' peer-cosine
        // signal scores every heard worker against one comparable group.
        k: KPolicy::One,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Disabled,
        hyper: GanHyper {
            batch: 10,
            ..GanHyper::default()
        },
        iterations: ITERS,
        seed: freerider_seed(),
        attacks,
        ..MdGanConfig::default()
    };
    c.defense.enabled = defended;
    c.robust.suspect_after = 2;
    c.robust.evict_after = 2;
    c.robust.probe_period = 1;
    c
}

/// Each of the three attack strategies is flagged by the forensics and
/// graduates into a permanent membership eviction, leaving the honest
/// majority training on finite parameters.
#[test]
fn every_strategy_is_flagged_and_evicted() {
    for attack in [
        Attack::PureNoise { std: 5.0 },
        Attack::DelayedEcho,
        Attack::PretrainedMimic,
    ] {
        let spec = ArchSpec::mlp_mnist_scaled(12);
        let rec = Arc::new(Recorder::enabled());
        let mut md =
            MdGan::new(&spec, shards(), cfg(vec![attack], true)).with_telemetry(Arc::clone(&rec));
        for _ in 0..ITERS {
            md.step();
        }
        assert!(
            rec.counter(Counter::WorkersFlagged) >= 1,
            "{attack:?} (seed {}) never flagged",
            freerider_seed()
        );
        assert_eq!(
            rec.counter(Counter::FreeridersEvicted),
            1,
            "{attack:?} (seed {}) not evicted exactly once",
            freerider_seed()
        );
        assert!(rec
            .events()
            .iter()
            .any(|e| matches!(e.event, Event::FreeriderEvicted { worker: 1, .. })));
        assert_eq!(md.membership().status(0), MemberStatus::Evicted);
        for w in 1..WORKERS {
            assert_eq!(
                md.membership().status(w),
                MemberStatus::Alive,
                "{attack:?}: honest worker {w} lost"
            );
        }
        assert!(md.gen_params().iter().all(|v| v.is_finite()));
    }
}

/// Sequential and threaded runtimes make identical forensics decisions
/// and produce bit-identical generators with attacks, defense and
/// eviction all active.
#[test]
fn sequential_threaded_bit_identical_with_defense() {
    let attacks = vec![Attack::PureNoise { std: 5.0 }];
    let spec = ArchSpec::mlp_mnist_scaled(12);

    let threaded = run_threaded(
        &spec,
        shards(),
        cfg(attacks.clone(), true),
        None,
        ITERS,
        1_000_000,
    );

    let mut seq = MdGan::new(&spec, shards(), cfg(attacks, true));
    for _ in 0..ITERS {
        seq.step();
    }

    assert_eq!(
        threaded.gen_params,
        seq.gen_params(),
        "generator params diverged under defense (seed {})",
        freerider_seed()
    );
    assert_eq!(
        threaded.traffic.class_bytes,
        seq.traffic().class_bytes,
        "traffic diverged"
    );
    assert_eq!(threaded.alive, seq.alive_workers(), "alive sets diverged");
    assert_eq!(seq.membership().status(0), MemberStatus::Evicted);
}

/// Under a 30% pure-noise free-rider fraction, enabling the defense
/// restores the final FID to at least the undefended run's level (the
/// undefended server averages fabricated gradients into every update).
#[test]
fn defense_restores_fid_under_30pct_freeriders() {
    let scale = ExperimentScale {
        img: 12,
        train_n: 512,
        test_n: 128,
        iters: 60,
        eval_every: 30,
        eval_samples: 64,
        seed: freerider_seed(),
    };
    let points = run_freerider(
        Family::MnistLike,
        mdgan_repro::core::arch::ArchKind::Mlp,
        scale,
        WORKERS,
        &[0.3],
        &["noise"],
        &Arc::new(Recorder::enabled()),
    )
    .unwrap();
    assert_eq!(points.len(), 2);
    let (undefended, defended) = (&points[0], &points[1]);
    assert!(!undefended.defended && defended.defended);
    assert_eq!(defended.evicted, 1, "seed {}", freerider_seed());
    assert!(
        defended.final_scores.fid <= undefended.final_scores.fid,
        "seed {}: defended FID {} worse than undefended {}",
        freerider_seed(),
        defended.final_scores.fid,
        undefended.final_scores.fid
    );
}
