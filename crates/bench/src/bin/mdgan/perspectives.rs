//! `mdgan perspectives` exercises the paper's §VII "perspectives", which
//! this repository implements as working extensions (no table/figure in the
//! paper — reported as forward-looking experiments in EXPERIMENTS.md):
//!
//! 1. **Asynchronous MD-GAN** (§VII.1): per-feedback generator updates with
//!    staleness-aware damping, vs the synchronous runtime, at equal
//!    generator-update budgets.
//! 2. **Message compression** (§VII.2): 8-bit batches + top-k feedbacks,
//!    traffic saved vs score cost.
//! 3. **Byzantine workers** (§VII.3): a sign-flipping minority under mean
//!    vs coordinate-median aggregation.
//! 4. **Fewer discriminators than workers** (§VII.4) and **non-i.i.d.
//!    shards** (an ablation of the paper's §III.a assumption).
//! 5. **Gossip GAN** (\[24\]): the fully decentralized baseline that
//!    motivated MD-GAN.
//!
//! ```text
//! cargo run --release -p md-bench --bin mdgan -- perspectives --iters 300
//! ```

use md_bench::{emit_run_record, print_table, recorder_from_env, write_csv, Args, BinError};
use md_data::synthetic::{mnist_like, Family};
use md_telemetry::{json, RunRecord, ScorePoint};
use md_tensor::rng::Rng64;
use mdgan_core::arch::ArchKind;
use mdgan_core::byzantine::{Aggregation, Attack};
use mdgan_core::compression::Codec;
use mdgan_core::config::{FlGanConfig, GanHyper, KPolicy, MdGanConfig, SwapPolicy};
use mdgan_core::eval::Evaluator;
use mdgan_core::gossip::GossipGan;
use mdgan_core::mdgan::asynchronous::{AsyncConfig, AsyncMdGan};
use mdgan_core::mdgan::trainer::MdGan;
use mdgan_core::supervisor::train_curve;
use mdgan_core::ArchSpec;
use std::sync::Arc;

pub fn run(args: &Args) -> Result<(), BinError> {
    let iters = args.get("iters", 300usize)?;
    let eval_every = args.get("eval-every", iters.max(4) / 4)?;
    let img = args.img(Family::MnistLike, ArchKind::Mlp)?;
    let train_n = args.get("train", 2048usize)?;
    let workers = args.get("workers", 10usize)?;
    let seed = args.get("seed", 42u64)?;

    let data = mnist_like(img, train_n + 512, seed, 0.08);
    let (train, test) = data.split_test(512);
    let mut evaluator = Evaluator::new(&train, &test, 256, seed);
    let spec = ArchSpec::mlp_mnist_scaled(img);
    let hyper = GanHyper {
        batch: 10,
        ..GanHyper::default()
    };
    let cfg = |seed_x: u64| MdGanConfig {
        workers,
        k: KPolicy::LogN,
        epochs_per_swap: 1.0,
        swap: SwapPolicy::Derangement,
        hyper,
        iterations: iters,
        seed: seed ^ seed_x,
        ..MdGanConfig::default()
    };
    let shards = |seed_x: u64| {
        let mut rng = Rng64::seed_from_u64(seed ^ seed_x);
        train.shard_iid(workers, &mut rng)
    };

    let recorder = recorder_from_env(false);
    let mut rows: Vec<[String; 4]> = Vec::new();
    let mut csv = String::new();
    let mut points: Vec<ScorePoint> = Vec::new();
    let mut record = |label: &str, timeline: &mdgan_core::ScoreTimeline, traffic_mb: f64| {
        let f = timeline.final_scores(2).expect("timeline");
        rows.push([
            label.to_string(),
            format!("{:.3}", f.inception_score),
            format!("{:.2}", f.fid),
            if traffic_mb >= 0.0 {
                format!("{traffic_mb:.1} MB")
            } else {
                "-".into()
            },
        ]);
        csv.push_str(&timeline.to_csv(label));
        points.extend(timeline.score_points(label));
    };
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);

    // --- 1. synchronous baseline vs asynchronous (equal update budgets).
    eprintln!("[1/5] sync vs async...");
    let mut sync = MdGan::new(&spec, shards(1), cfg(1)).with_telemetry(Arc::clone(&recorder));
    let t = train_curve(&mut sync, iters, eval_every, &mut evaluator, &recorder)?;
    record("sync MD-GAN", &t, mb(sync.traffic().total_bytes()));

    for (label, acfg) in [
        (
            "async damped skew=0.3",
            AsyncConfig {
                staleness_damping: 0.5,
                speed_skew: 0.3,
            },
        ),
        (
            "async undamped skew=0.3",
            AsyncConfig {
                staleness_damping: 0.0,
                speed_skew: 0.3,
            },
        ),
        (
            "async damped skew=0.8",
            AsyncConfig {
                staleness_damping: 0.5,
                speed_skew: 0.8,
            },
        ),
    ] {
        let mut amd =
            AsyncMdGan::new(&spec, shards(1), cfg(1), acfg).with_telemetry(Arc::clone(&recorder));
        // Equal generator-update budget: the sync run applies `iters`
        // updates, so run the async system for `iters` events too... except
        // sync applies 1 update per iteration from N feedbacks; async
        // applies 1 update per feedback. Use iters*N events for equal
        // feedback budget (same total worker compute).
        let t = amd.train(iters * workers, eval_every * workers, Some(&mut evaluator));
        let s = amd.async_stats();
        eprintln!(
            "    {label}: mean staleness {:.2}, max {}",
            s.mean_staleness(),
            s.staleness_max
        );
        record(label, &t, mb(amd.traffic().total_bytes()));
    }

    // --- 2. compression.
    eprintln!("[2/5] compression...");
    for (label, batch, feedback) in [
        (
            "compress q8/top25%q8",
            Codec::Quantize8,
            Codec::TopKQuantize8 { frac: 0.25 },
        ),
        ("compress q8/q8", Codec::Quantize8, Codec::Quantize8),
    ] {
        let mut md = MdGan::new(&spec, shards(1), cfg(1))
            .with_codecs(batch, feedback)
            .with_telemetry(Arc::clone(&recorder));
        let t = train_curve(&mut md, iters, eval_every, &mut evaluator, &recorder)?;
        record(label, &t, mb(md.traffic().total_bytes()));
    }

    // --- 3. byzantine workers.
    eprintln!("[3/5] byzantine workers...");
    let n_evil = (workers / 3).max(1);
    let mut attacks = vec![Attack::None; workers];
    for a in attacks.iter_mut().take(n_evil) {
        *a = Attack::SignFlip { scale: 10.0 };
    }
    for (label, agg) in [
        ("byz mean (undefended)", Aggregation::Mean),
        ("byz coordinate-median", Aggregation::CoordinateMedian),
    ] {
        let byz_cfg = MdGanConfig {
            attacks: attacks.clone(),
            aggregation: agg,
            ..cfg(2)
        };
        let mut md = MdGan::new(&spec, shards(2), byz_cfg).with_telemetry(Arc::clone(&recorder));
        let t = train_curve(&mut md, iters, eval_every, &mut evaluator, &recorder)?;
        record(&format!("{label} ({n_evil}/{workers} evil)"), &t, -1.0);
    }

    // --- 4. fewer discriminators + non-iid shards.
    eprintln!("[4/5] partial hosting and non-iid...");
    let mut md = MdGan::new(&spec, shards(3), cfg(3))
        .with_disc_count((workers / 2).max(1))
        .with_telemetry(Arc::clone(&recorder));
    let t = train_curve(&mut md, iters, eval_every, &mut evaluator, &recorder)?;
    record(
        &format!("MD-GAN {}/{} discriminators", (workers / 2).max(1), workers),
        &t,
        mb(md.traffic().total_bytes()),
    );

    for skew in [0.5f32, 1.0] {
        let mut rng = Rng64::seed_from_u64(seed ^ 4);
        let sh = train.shard_label_skew(workers, skew, &mut rng);
        let mut md = MdGan::new(&spec, sh, cfg(4)).with_telemetry(Arc::clone(&recorder));
        let t = train_curve(&mut md, iters, eval_every, &mut evaluator, &recorder)?;
        record(&format!("MD-GAN non-iid skew={skew}"), &t, -1.0);
    }

    // --- 5. gossip GAN baseline.
    eprintln!("[5/5] gossip GAN...");
    let fl_cfg = FlGanConfig {
        workers,
        epochs_per_round: 1.0,
        hyper,
        iterations: iters,
        seed: seed ^ 5,
    };
    let mut gg = GossipGan::new(&spec, shards(5), fl_cfg).with_telemetry(Arc::clone(&recorder));
    let t = train_curve(&mut gg, iters, eval_every, &mut evaluator, &recorder)?;
    record("gossip GAN [24]", &t, mb(gg.traffic().total_bytes()));

    write_csv("ext_perspectives.csv", "label,iter,is,fid", &csv)?;
    print_table(
        "§VII perspectives + decentralized baseline (IS ↑, FID ↓)",
        ["variant", "IS", "FID", "traffic"],
        &rows,
    );

    // Run record: all curves plus the recorder's aggregated phase
    // histograms, stale-update tallies (async runs) and per-worker stats.
    let run_record = RunRecord::new("ext_perspectives")
        .with_config_json(
            json::Object::new()
                .field_str("experiment", "ext_perspectives")
                .field_u64("workers", workers as u64)
                .field_u64("iterations", iters as u64)
                .field_u64("seed", seed)
                .build(),
        )
        .with_scores(points);
    Ok(emit_run_record(run_record, &recorder)?)
}
